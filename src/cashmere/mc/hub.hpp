// Memory Channel (MC) hub: the accounting and bus-reservation chokepoint.
//
// DEC's Memory Channel is a remote-write network: writes (32-bit granularity)
// to a transmit region are forwarded through a hub and DMA-ed into receive
// regions with the same identifier on other nodes; remote reads do not
// exist. MC guarantees (a) 32-bit write atomicity, (b) a single global order
// for writes to the same region, observed identically on every node, and
// (c) optional loop-back so a writer can tell when its own write has been
// globally performed.
//
// The raw wire behind those guarantees is pluggable (mc/transport.hpp):
// InProcTransport emulates the cluster inside one process, ShmTransport
// spreads it across one OS process per node on shared memfd segments. The
// hub itself is wire-agnostic — protocol code builds a typed McOp and calls
// Issue(), which delegates the write to the bound transport and charges
// traffic exactly once. Counters under the default in-process transport are
// byte-identical to the historical per-method accounting (pinned by
// mc_test's InprocCountersMatchPrePluggableAccounting).
#ifndef CASHMERE_MC_HUB_HPP_
#define CASHMERE_MC_HUB_HPP_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "cashmere/common/trace.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/common/word_access.hpp"
#include "cashmere/mc/inproc_transport.hpp"
#include "cashmere/mc/transport.hpp"

namespace cashmere {

// Atomic 32-bit word copy helpers. All shared-page data movement in the
// system goes through these, mirroring MC's 32-bit write atomicity and
// keeping concurrent access by race-free programs well defined. The word
// accesses themselves are the shared std::atomic_ref helpers in
// common/word_access.hpp, which the diff engine uses too.
void CopyWords32(void* dst, const void* src, std::size_t words);
std::uint32_t LoadWord32(const void* src);
void StoreWord32(void* dst, std::uint32_t value);

class McHub {
 public:
  // Owns a default in-process transport.
  explicit McHub(int units);
  // Binds an externally-owned transport (must outlive the hub).
  McHub(int units, McTransport* transport);
  McHub(const McHub&) = delete;
  McHub& operator=(const McHub&) = delete;

  int units() const { return units_; }
  McTransport& transport() { return *transport_; }
  const McTransport& transport() const { return *transport_; }

  // The single remote-write funnel: executes `op` on the bound transport
  // and charges its wire bytes to the op's traffic class. Returns the
  // previous word value for exchange ops, 0 otherwise. The descriptor is
  // passed by value everywhere on this path — including into the
  // out-of-line IssueVirtual fallback — so its address never escapes and
  // the compiler can scalarize it; call sites build the op with a
  // compile-time-constant kind, so the dispatch and WireBytes switches
  // fold away on the devirtualized default path (the bench_transport
  // ≤5% gate). Calling Execute(const McOp&) here directly would leak &op
  // into a virtual call and pin the descriptor in memory.
  std::uint32_t Issue(McOp op) {
    if (inproc_ != nullptr) {
      const std::uint32_t prev = inproc_->ExecuteInline(op);
      AccountWrite(op.traffic, op.WireBytes(units_));
      return prev;
    }
    // Rebuilt field-by-field so this cold block is the only place a whole
    // McOp object exists: `op` itself then has scalar uses only, and the
    // hot path above carries no aggregate stores at all.
    return IssueVirtual(McOp{op.kind, op.traffic, op.dst, op.src, op.value,
                             op.words, op.offset_words});
  }

  // Account traffic that was moved by other means (e.g. diff runs applied
  // word by word inside the diff engine, directory words stored under a
  // lock already held). Inline: with ExecuteInline also in its header, the
  // default Issue path compiles down to the store plus these two relaxed
  // fetch-adds — the same instructions the pre-transport hub executed.
  void AccountWrite(Traffic t, std::size_t bytes) {
    bytes_[static_cast<int>(t)].fetch_add(bytes, std::memory_order_relaxed);
    writes_[static_cast<int>(t)].fetch_add(1, std::memory_order_relaxed);
    // Single chokepoint for MC traffic: every Issue() lands here, so one
    // emit covers the hub.
    if (TraceActive()) {
      TraceEmit(EventKind::kMcWrite, kNoTracePage, 0, static_cast<std::uint32_t>(t),
                static_cast<std::uint64_t>(bytes));
    }
  }

  std::uint64_t BytesSent(Traffic t) const {
    return bytes_[static_cast<int>(t)].load(std::memory_order_relaxed);
  }
  std::uint64_t WritesSent(Traffic t) const {
    return writes_[static_cast<int>(t)].load(std::memory_order_relaxed);
  }
  std::uint64_t TotalBytes() const;
  // Data traffic as counted by the paper's Table 3 "Data" row (page data +
  // diffs + write notices; excludes directory and synchronization words).
  std::uint64_t DataBytes() const;

  // --- Bus occupancy (virtual time) --------------------------------------
  // MC is a serial interconnect: bulk transfers queue behind each other.
  // Reserves the bus for `bytes` starting no earlier than `earliest`;
  // returns the virtual time at which the transfer completes. ns-per-byte
  // is configured by the runtime from the (scaled) cost model; 0 disables
  // occupancy modeling.
  void set_ns_per_byte(double ns_per_byte) { ns_per_byte_ = ns_per_byte; }
  VirtTime ReserveBus(VirtTime earliest, std::size_t bytes);

 private:
  // Cold path for non-inproc backends: the vtable dispatch to
  // McTransport::Execute plus the traffic charge. Out of line (hub.cpp)
  // and by value on purpose — see Issue.
  std::uint32_t IssueVirtual(McOp op);

  int units_;
  std::unique_ptr<McTransport> owned_transport_;  // set by the 1-arg ctor
  McTransport* transport_;
  InProcTransport* inproc_;  // devirtualized fast path; null for other backends
  // Set once by the runtime before processor threads start; read-only after.
  double ns_per_byte_ = 0.0;
  std::atomic<std::uint64_t> bus_clock_{0};
  std::array<std::atomic<std::uint64_t>, kNumTrafficClasses> bytes_{};
  std::array<std::atomic<std::uint64_t>, kNumTrafficClasses> writes_{};
};

}  // namespace cashmere

#endif  // CASHMERE_MC_HUB_HPP_
