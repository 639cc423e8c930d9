// Release-path coherence records and the asynchronous drain (DESIGN.md §12).
//
// Every release flush is one CoherenceRecord: the page's serialized diff
// (DiffWireSlot image) and its cost metadata. CashmereProtocol::EncodeRelease
// fills it on the releaser under the page lock, and
// CashmereProtocol::Propagate carries it out — replays the diff into the home
// node's master copy, occupies the MC bus, charges the diff (or
// write-doubling) cost and posts the write notices. Two drain policies run
// that one Propagate:
//
//   synchronous  the releaser calls Propagate itself (2LS, 1LD, 1L and
//                --no-async);
//   asynchronous with Config::async.release on (2L, 2L-lock), the releaser
//                stamps its clock into the record and publishes a copy
//                into its unit's bounded MPSC CoherenceLog, and a per-unit
//                background cache-agent thread drains the log in sequence
//                order, calls Propagate, and advances the log's applied
//                sequence number (the per-node applied_clock of the
//                paper's log-based design).
//
// Either way Propagate reads the write-notice targets from the directory
// once the diff is in the master copy.
//
// Acquires gate on happens-before only: sync objects carry a per-unit
// sequence vector (the releaser's own publishes, max-folded with everything
// it had itself observed), and an acquirer waits until applied_seq[u] covers
// the merged vector entry for exactly the units whose releases precede its
// acquire — never for unrelated in-flight traffic.
//
// Lock ordering: the log's producer lock is a leaf. Publishers call Publish
// while holding a page lock; the agent takes no page locks at all (diff
// replay is hub word writes into the master frame, the sharing-set read
// is lock-free, write-notice posting takes only the bin producer lock),
// so a publisher spinning on a full ring
// always drains (see docs/concurrency.md).
#ifndef CASHMERE_PROTOCOL_COHERENCE_LOG_HPP_
#define CASHMERE_PROTOCOL_COHERENCE_LOG_HPP_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/msg/diff_wire.hpp"

namespace cashmere {

// CoherenceLog ring capacity (records per unit). A full ring back-pressures
// the publisher, which spins until the agent catches up.
inline constexpr std::uint32_t kCoherenceLogEntries = 64;

// One release flush of one page: everything Propagate needs to finish the
// release's global side effects, on the releaser or on the cache agent.
struct CoherenceRecord {
  PageId page = kInvalidPage;
  std::uint64_t seq = 0;        // per-log sequence, assigned by Publish
  VirtTime publish_vt = 0;      // releaser's virtual clock at publish
  std::uint32_t words = 0;      // diff payload words (DiffOutNs, bus bytes)
  bool has_diff = false;        // false: write-notice-only record
  bool home_local = false;      // home on the releaser's node (cost choice)
  DiffWireSlot slot;            // serialized diff image (used prefix valid)
};

// Bounded MPSC ring of CoherenceRecords. Producers are the owning unit's
// releasing processors (serialized by producer_lock); the single consumer
// is the unit's cache-agent thread. Sequence numbers start at 1; a record
// with sequence s lives in slot (s - 1) % capacity and is reusable once
// applied_seq >= s, i.e. the ring is full while
// published_seq - applied_seq == capacity.
class CoherenceLog {
 public:
  explicit CoherenceLog(std::uint32_t entries);
  CoherenceLog(const CoherenceLog&) = delete;
  CoherenceLog& operator=(const CoherenceLog&) = delete;

  std::uint32_t capacity() const { return capacity_; }

  // Producer side. Claims the next slot (spinning via Backoff while the
  // ring is full), invokes fill(record) to populate it in place, assigns
  // the record's sequence number and makes it visible to the consumer.
  // Returns the assigned sequence. `*stalled` is set to true if the call
  // had to wait for the agent at least once (left untouched otherwise).
  template <typename Filler>
  std::uint64_t Publish(Filler&& fill, bool* stalled) {
    SpinLockGuard guard(producer_lock_);
    const std::uint64_t seq = published_seq_.load(std::memory_order_relaxed) + 1;
    if (seq - applied_seq_.load(std::memory_order_acquire) > capacity_) {
      if (stalled != nullptr) {
        *stalled = true;
      }
      Backoff backoff;
      while (seq - applied_seq_.load(std::memory_order_acquire) > capacity_) {
        backoff.Pause();
      }
    }
    CoherenceRecord& rec = ring_[static_cast<std::size_t>((seq - 1) % capacity_)];
    fill(rec);
    rec.seq = seq;
    published_seq_.store(seq, std::memory_order_release);
    return seq;
  }

  // True iff a Publish issued now would have to wait for the agent.
  bool Full() const {
    return published_seq_.load(std::memory_order_acquire) -
               applied_seq_.load(std::memory_order_acquire) >=
           capacity_;
  }

  // Consumer side (single drainer). Peek returns the oldest unapplied
  // record, or nullptr when the log is drained; PopApplied retires it and
  // records the virtual time at which it became visible (the gate time
  // acquirers reconcile to).
  const CoherenceRecord* Peek() const {
    const std::uint64_t applied = applied_seq_.load(std::memory_order_relaxed);
    if (published_seq_.load(std::memory_order_acquire) == applied) {
      return nullptr;
    }
    return &ring_[static_cast<std::size_t>(applied % capacity_)];
  }
  void PopApplied(VirtTime applied_vt) {
    const std::uint64_t seq = applied_seq_.load(std::memory_order_relaxed) + 1;
    GateSlot& g = gate_[static_cast<std::size_t>(seq % gate_.size())];
    g.vt.store(applied_vt, std::memory_order_relaxed);
    g.seq.store(seq, std::memory_order_release);
    applied_seq_.store(seq, std::memory_order_release);
  }

  std::uint64_t published_seq() const {
    return published_seq_.load(std::memory_order_acquire);
  }
  std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }
  bool Empty() const { return applied_seq() == published_seq(); }

  // Virtual time at which record `seq` was applied, for the acquirer's
  // clock reconciliation after the gate passes. Returns 0 when the gate
  // ring has wrapped past `seq`; a torn read across a wrap can only return
  // a *later* applied time (applied times are monotonic per log), so the
  // gate is at worst conservative — documented in DESIGN.md §12.
  VirtTime AppliedVtOf(std::uint64_t seq) const {
    const GateSlot& g = gate_[static_cast<std::size_t>(seq % gate_.size())];
    if (g.seq.load(std::memory_order_acquire) != seq) {
      return 0;
    }
    const VirtTime vt = g.vt.load(std::memory_order_relaxed);
    if (g.seq.load(std::memory_order_acquire) != seq) {
      return 0;
    }
    return vt;
  }

 private:
  // Seq-tagged apply-time slots, sized past the record ring so a gater
  // reconciling a recently applied sequence usually still finds its time.
  struct GateSlot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<VirtTime> vt{0};
  };

  SpinLock producer_lock_;
  std::atomic<std::uint64_t> published_seq_{0};
  std::atomic<std::uint64_t> applied_seq_{0};
  std::uint32_t capacity_;
  // Default-initialized, not zeroed: a record is ~16 KB, sized for a
  // worst-case diff, and only its header and the used prefix of its wire
  // image are ever written, so the rest of the ring never becomes resident.
  std::unique_ptr<CoherenceRecord[]> ring_;
  std::vector<GateSlot> gate_;
};

// The per-unit logs plus the agents' stop flag. Owned by the Runtime and
// handed to the protocol through CashmereProtocol::Deps.
class CoherenceEngine {
 public:
  explicit CoherenceEngine(const Config& cfg);
  CoherenceEngine(const CoherenceEngine&) = delete;
  CoherenceEngine& operator=(const CoherenceEngine&) = delete;

  int units() const { return static_cast<int>(logs_.size()); }
  CoherenceLog& LogOf(UnitId u) { return logs_[static_cast<std::size_t>(u)]; }
  const CoherenceLog& LogOf(UnitId u) const {
    return logs_[static_cast<std::size_t>(u)];
  }

  bool AllEmpty() const;

 private:
  std::deque<CoherenceLog> logs_;
};

// Happens-before sequence vectors, carried by sync objects. PublishSeqVector
// max-folds a processor's observed vector into a sync object's atomic vector
// at release; MergeSeqVector folds the object's vector back into the
// acquirer's before its acquire gate runs. CAS max-folds make the vectors
// safe under every sync shape (racing flag setters, barrier episodes).
inline void PublishSeqVector(std::atomic<std::uint64_t>* dst, const std::uint64_t* src,
                             int units) {
  for (int u = 0; u < units; ++u) {
    std::uint64_t cur = dst[u].load(std::memory_order_relaxed);
    while (cur < src[u] &&
           !dst[u].compare_exchange_weak(cur, src[u], std::memory_order_acq_rel)) {
    }
  }
}

inline void MergeSeqVector(std::uint64_t* dst, const std::atomic<std::uint64_t>* src,
                           int units) {
  for (int u = 0; u < units; ++u) {
    const std::uint64_t v = src[u].load(std::memory_order_acquire);
    if (v > dst[u]) {
      dst[u] = v;
    }
  }
}

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_COHERENCE_LOG_HPP_
