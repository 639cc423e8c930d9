// Memory Channel (MC) hub: the remote-write wire and its accounting.
//
// DEC's Memory Channel is a remote-write network: writes (32-bit granularity)
// to a transmit region are forwarded through a hub and DMA-ed into receive
// regions with the same identifier on other nodes; remote reads do not
// exist. MC guarantees (a) 32-bit write atomicity, (b) a single global order
// for writes to the same region, observed identically on every node, and
// (c) optional loop-back so a writer can tell when its own write has been
// globally performed.
//
// The full vocabulary the protocol needs from the wire is five operations
// (one unordered word write, an unordered word-stream write, an RLE
// diff-run scatter, and the totally-ordered broadcast/exchange pair used
// for control words), described by a typed McOp and funnelled through
// McHub::Issue, which executes the write and charges its traffic once.
//
// All emulated nodes live in one process, so a remote write is an atomic
// 32-bit store executed by the sender directly into the receiver's memory.
// That reproduces MC's observable behaviour exactly:
//   - atomicity: std::atomic_ref<uint32_t> stores (common/word_access.hpp);
//   - global ordering for control traffic: the ordered ops serialize
//     through the hub's order lock (MC is physically a bus);
//   - loop-back: a broadcast is globally performed when Issue returns.
// Replicated regions (directory, lock arrays) are stored once rather than
// once per node: because updates are applied atomically inside the hub,
// every per-node replica would be bitwise identical at all times, so a
// single copy is observationally equivalent; broadcast *traffic* is still
// accounted per replica (McOp::WireBytes).
#ifndef CASHMERE_MC_HUB_HPP_
#define CASHMERE_MC_HUB_HPP_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "cashmere/common/spin.hpp"
#include "cashmere/common/trace.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/common/word_access.hpp"

namespace cashmere {

// Traffic classes, for the Table 3 "Data" row and the MC accounting tests.
enum class Traffic : int {
  kDirectory = 0,
  kSyncObject,
  kWriteNotice,
  kRequest,
  kPageData,   // full page transfers (fetch replies, exclusive flushes)
  kDiffData,   // outgoing diffs flushed to home nodes
  kNumClasses,
};
inline constexpr int kNumTrafficClasses = static_cast<int>(Traffic::kNumClasses);

// --- The remote-write vocabulary ------------------------------------------

enum class McOpKind : std::uint8_t {
  kWrite32 = 0,           // unordered remote write of one word
  kWriteStream,           // unordered remote write of a word stream
  kWriteRun,              // RLE diff run: scatter payload at a word offset
  kOrderedBroadcast32,    // totally-ordered broadcast of one word
  kOrderedExchange32,     // ordered read-modify-broadcast (returns previous)
};

// One remote-write operation, fully described. Call sites build a typed
// descriptor with the named constructors and funnel it through
// McHub::Issue; the per-op wire-byte math lives here (WireBytes) so every
// op is charged by one formula.
struct McOp {
  McOpKind kind = McOpKind::kWrite32;
  Traffic traffic = Traffic::kDirectory;
  void* dst = nullptr;          // destination word or stream/run base
  const void* src = nullptr;    // payload (stream/run ops)
  std::uint32_t value = 0;      // payload (word ops)
  std::size_t words = 0;        // payload length in 32-bit words
  std::size_t offset_words = 0; // run scatter offset from dst

  // Unordered remote write of a single word.
  static McOp Word(std::uint32_t* dst, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWrite32;
    op.traffic = t;
    op.dst = dst;
    op.value = value;
    return op;
  }
  // Unordered remote write of `words` words into one destination node's
  // receive region (page data, diffs, write notices). Word-atomic.
  static McOp Stream(void* dst, const void* src, std::size_t words, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWriteStream;
    op.traffic = t;
    op.dst = dst;
    op.src = src;
    op.words = words;
    return op;
  }
  // One RLE diff run: scatters `nwords` payload words into `dst_base` at
  // word offset `offset_words`. On MC a diff run is raw remote writes of
  // the modified words, so traffic is the payload bytes only.
  static McOp Run(void* dst_base, std::size_t offset_words, const void* payload,
                  std::size_t nwords, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWriteRun;
    op.traffic = t;
    op.dst = dst_base;
    op.src = payload;
    op.words = nwords;
    op.offset_words = offset_words;
    return op;
  }
  // Totally-ordered broadcast of one word to a replicated location.
  // Issue returns only after the write is globally performed (loop-back
  // semantics). Traffic is accounted as one write per replica.
  static McOp Broadcast(std::uint32_t* location, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kOrderedBroadcast32;
    op.traffic = t;
    op.dst = location;
    op.value = value;
    return op;
  }
  // Ordered read-modify-broadcast: applies `value` and returns the previous
  // value, all inside the global order. Used to resolve races the real
  // protocol resolves through MC's total write ordering (e.g. concurrent
  // exclusive-mode claims).
  static McOp Exchange(std::uint32_t* location, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kOrderedExchange32;
    op.traffic = t;
    op.dst = location;
    op.value = value;
    return op;
  }

  // Wire bytes this op charges: broadcasts charge one word per replica,
  // streams and runs charge their payload.
  std::size_t WireBytes(int units) const {
    switch (kind) {
      case McOpKind::kWrite32:
        return kWordBytes;
      case McOpKind::kWriteStream:
      case McOpKind::kWriteRun:
        return words * kWordBytes;
      case McOpKind::kOrderedBroadcast32:
      case McOpKind::kOrderedExchange32:
        return kWordBytes * static_cast<std::size_t>(units);
    }
    return 0;
  }
};

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
  explicit McHub(int units) : units_(units) {}
  McHub(const McHub&) = delete;
  McHub& operator=(const McHub&) = delete;

  int units() const { return units_; }

  // The single remote-write funnel: executes `op` and charges its wire
  // bytes to the op's traffic class. Returns the previous word value for
  // exchange ops, 0 otherwise. Defined here, in the header, and taking the
  // descriptor by value on purpose: call sites build the op with a
  // compile-time-constant kind, so after inlining the dispatch and
  // WireBytes switches fold away and an Issue costs the store plus the two
  // relaxed fetch-adds of AccountWrite.
  std::uint32_t Issue(McOp op) {
    std::uint32_t prev = 0;
    switch (op.kind) {
      case McOpKind::kWrite32:
        StoreWord32Release(op.dst, op.value);
        break;
      case McOpKind::kWriteStream:
        CopyWords32(op.dst, op.src, op.words);
        break;
      case McOpKind::kWriteRun:
        CopyWords32(static_cast<std::byte*>(op.dst) + op.offset_words * kWordBytes,
                    op.src, op.words);
        break;
      case McOpKind::kOrderedBroadcast32: {
        SpinLockGuard guard(order_lock_);
        StoreWord32Release(op.dst, op.value);
        break;
      }
      case McOpKind::kOrderedExchange32: {
        SpinLockGuard guard(order_lock_);
        prev = LoadWord32Acquire(op.dst);
        StoreWord32Release(op.dst, op.value);
        break;
      }
    }
    AccountWrite(op.traffic, op.WireBytes(units_));
    return prev;
  }

  // Account traffic that was moved by other means (e.g. diff runs applied
  // word by word inside the diff engine, directory words stored under a
  // lock already held). Inline, like Issue.
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
  int units_;
  // Capability ordering the "bus": the ordered-op critical sections model
  // MC's single global write order. It guards no hub field — the
  // serialized stores land in caller-owned replicated locations — so there
  // is no GUARDED_BY; the RAII guard plus the SpinLock capability
  // annotations give the analysis the pairing.
  SpinLock order_lock_;
  // Set once by the runtime before processor threads start; read-only after.
  double ns_per_byte_ = 0.0;
  std::atomic<std::uint64_t> bus_clock_{0};
  std::array<std::atomic<std::uint64_t>, kNumTrafficClasses> bytes_{};
  std::array<std::atomic<std::uint64_t>, kNumTrafficClasses> writes_{};
};

}  // namespace cashmere

#endif  // CASHMERE_MC_HUB_HPP_
