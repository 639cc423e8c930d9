// Per-unit protocol state: the second-level directory (per-processor
// permissions + three timestamps per page, Section 2.3), the unit's
// logical clock, per-processor dirty lists, and no-longer-exclusive (NLE)
// lists.
//
// Timestamps hold values of the unit's logical clock, which is incremented
// on protocol events (page faults, flushes, acquires, releases). They are:
//   flush_ts  — when the most recent flush of the page to the home began;
//   update_ts — when the local copy was last brought up to date;
//   wn_ts     — when the most recent write notice for the page was
//               distributed locally.
// A fetch can be skipped iff update_ts > wn_ts; a flush can be skipped iff
// it began after the releasing processor's release started.
#ifndef CASHMERE_PROTOCOL_PAGE_TABLE_HPP_
#define CASHMERE_PROTOCOL_PAGE_TABLE_HPP_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/logging.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/thread_safety.hpp"
#include "cashmere/common/types.hpp"

namespace cashmere {

// State of one page on one unit. The spin lock guards all fields; waiting
// for a fetch in progress is done *without* the lock (see protocol).
struct PageLocal {
  SpinLock lock;
  std::atomic<bool> fetch_in_progress{false};

  std::atomic<std::uint64_t> update_ts{0};
  std::atomic<std::uint64_t> wn_ts{0};
  std::atomic<std::uint64_t> flush_ts{0};
  // Virtual time at which the last flush's data was globally visible;
  // used to order release->acquire reconciliation.
  std::atomic<std::uint64_t> flush_vt{0};

  // Perm per local processor. Written only under the page lock; the atomic
  // type exists for PermOfLocalRelaxed, which a PermBatch commit reads
  // without the lock (CashmereProtocol::ResolveQueuedPerm) while other
  // processors may be changing the same page's perms.
  std::atomic<std::uint8_t> proc_perm[kMaxProcsPerNode] = {};
  // Local procs holding the page dirty
  std::uint8_t dirty_mask CSM_GUARDED_BY(lock) = 0;
  bool twin_valid CSM_GUARDED_BY(lock) = false;
  // Twin generation: incremented (via SetTwinValid) every time twin_valid
  // toggles, so parity encodes validity (odd ⇔ a twin is live). Carried by
  // the kTwinCreate/kTwinDiscard trace events for the replay checker.
  std::uint64_t twin_gen CSM_GUARDED_BY(lock) = 0;
  // This unit holds the page in exclusive mode
  bool exclusive CSM_GUARDED_BY(lock) = false;
  // Processor recorded as the exclusive holder
  ProcId excl_proc CSM_GUARDED_BY(lock) = 0;
  // The local frame has held a valid copy
  bool ever_valid CSM_GUARDED_BY(lock) = false;
  // Async release-path coherence (protocol/coherence_log.hpp): number of
  // published-but-not-yet-applied log records covering this page on this
  // unit. Incremented under the page lock at publish time; decremented by
  // the unit's cache agent (which takes no page locks) after it has
  // replayed the record's diff into the master copy and posted the write
  // notices. While nonzero, (a) a local fetch must not read the master copy
  // — it would miss this unit's own in-flight modifications — and (b) the
  // unit must stay in the page's sharing set so no other unit claims
  // exclusive mode over the pending flush.
  std::atomic<std::uint32_t> pending_flush{0};
  // Number of this unit's flushes of the page that carried a diff. A fetch
  // samples it when it sends the request and drops an image that arrives
  // after it moved: the image may predate that diff.
  std::uint32_t diff_flushes CSM_GUARDED_BY(lock) = 0;
  // Log sequence of this unit's latest published record for the page
  // (async mode). A release whose flush is skipped because another local
  // flush covered its modifications carries this sequence instead of one
  // of its own, so its acquirers still gate on the covering record.
  std::uint64_t last_publish_seq CSM_GUARDED_BY(lock) = 0;
  // Trace-only transition sequence: bumped (under the page lock) for every
  // traced per-page protocol transition, giving the replay invariant
  // checker a total order over one page's transitions that does not depend
  // on cross-processor virtual-clock comparisons. Never read by the
  // protocol itself, and only bumped while tracing is active, so enabling
  // tracing cannot change protocol decisions.
  std::atomic<std::uint32_t> trace_seq{0};

  // The only way twin_valid may be changed (page lock held): keeps the
  // generation's parity in sync with the flag. Idempotent stores (e.g.
  // re-clearing an already-invalid twin during superpage relocation) do not
  // bump the generation, so every live twin has exactly one odd generation.
  void SetTwinValid(bool v) CSM_REQUIRES(lock) {
    if (twin_valid == v) {
      return;
    }
    twin_valid = v;
    ++twin_gen;
  }

  Perm PermOfLocal(int local_index) const CSM_REQUIRES(lock) {
    return static_cast<Perm>(proc_perm[local_index].load(std::memory_order_relaxed));
  }
  // Unlocked probe for the PermBatch commit resolver, which re-reads the
  // current perm of a queued (proc, page) so the mapping follows the page
  // table's latest truth, not the queued hint. A stale read is benign: the
  // view commit lock orders commits, and the commit that follows the
  // racing transition (every transition queues an entry) re-reads it.
  Perm PermOfLocalRelaxed(int local_index) const {
    return static_cast<Perm>(proc_perm[local_index].load(std::memory_order_relaxed));
  }
  void SetPermOfLocal(int local_index, Perm p) CSM_REQUIRES(lock) {
    proc_perm[local_index].store(static_cast<std::uint8_t>(p), std::memory_order_relaxed);
  }
  Perm Loosest(int procs_per_unit) const CSM_REQUIRES(lock) {
    Perm loosest = Perm::kInvalid;
    for (int i = 0; i < procs_per_unit; ++i) {
      const std::uint8_t p = proc_perm[i].load(std::memory_order_relaxed);
      if (p > static_cast<std::uint8_t>(loosest)) {
        loosest = static_cast<Perm>(p);
      }
    }
    return loosest;
  }
  int WriterCount(int procs_per_unit) const CSM_REQUIRES(lock) {
    int n = 0;
    for (int i = 0; i < procs_per_unit; ++i) {
      if (proc_perm[i].load(std::memory_order_relaxed) ==
          static_cast<std::uint8_t>(Perm::kReadWrite)) {
        ++n;
      }
    }
    return n;
  }
};

// A bounded, lock-protected page list used for the per-processor dirty and
// NLE lists. Deduplicates via bitmap, like the write-notice queues.
class PageList {
 public:
  explicit PageList(std::size_t pages) : bitmap_((pages + 31) / 32), pages_() {
    pages_.reserve(pages);
    for (auto& w : bitmap_) {
      w.store(0, std::memory_order_relaxed);
    }
  }
  PageList(const PageList&) = delete;
  PageList& operator=(const PageList&) = delete;

  // Returns true if newly added.
  bool Add(PageId page) {
    SpinLockGuard guard(lock_);
    std::atomic<std::uint32_t>& word = bitmap_[page / 32];
    const std::uint32_t mask = 1u << (page % 32);
    if ((word.load(std::memory_order_relaxed) & mask) != 0) {
      return false;
    }
    word.fetch_or(mask, std::memory_order_relaxed);
    // csm-lint: allow(fault-path-signal-safety) -- pages_ is reserved to
    // capacity at construction and the bitmap dedup bounds growth, so this
    // push_back never allocates
    pages_.push_back(page);
    return true;
  }

  bool Contains(PageId page) const {
    return (bitmap_[page / 32].load(std::memory_order_acquire) & (1u << (page % 32))) != 0;
  }

  // Removes and returns all pages (order preserved).
  void TakeAll(std::vector<PageId>& out) {
    SpinLockGuard guard(lock_);
    out.insert(out.end(), pages_.begin(), pages_.end());
    for (const PageId p : pages_) {
      bitmap_[p / 32].fetch_and(~(1u << (p % 32)), std::memory_order_relaxed);
    }
    pages_.clear();
  }

  bool Empty() const {
    SpinLockGuard guard(lock_);
    return pages_.empty();
  }

 private:
  mutable SpinLock lock_;
  // Read lock-free by Contains (dedup hint); mutated only under lock_.
  std::vector<std::atomic<std::uint32_t>> bitmap_;
  std::vector<PageId> pages_ CSM_GUARDED_BY(lock_);
};

// All protocol state owned by one coherence unit.
class UnitState {
 public:
  UnitState(const Config& cfg, UnitId unit);
  UnitState(const UnitState&) = delete;
  UnitState& operator=(const UnitState&) = delete;

  PageLocal& Page(PageId page) { return pages_[page]; }
  std::size_t page_count() const { return pages_.size(); }

  // Logical clock: "incremented every time the protocol begins an acquire
  // or release operation and applies local changes to the home node, or
  // vice versa".
  std::uint64_t Tick() { return clock_.fetch_add(1, std::memory_order_acq_rel) + 1; }
  std::uint64_t Now() const { return clock_.load(std::memory_order_acquire); }

  std::atomic<std::uint64_t>& last_release_time() { return last_release_time_; }

  PageList& DirtyList(int local_index) { return *dirty_[static_cast<std::size_t>(local_index)]; }
  PageList& NleList(int local_index) { return *nle_[static_cast<std::size_t>(local_index)]; }

  // Barrier-episode arrival mask (for the "last arriving local writer"
  // flush rule, Section 2.3).
  std::atomic<std::uint32_t>& barrier_arrived_mask() { return barrier_arrived_mask_; }

  // Serializes global write-notice drain + distribution among this unit's
  // processors, so a processor that finds the global bins already drained
  // is guaranteed the concurrent drainer has finished distributing to the
  // per-processor lists before it processes its own list.
  SpinLock& acquire_lock() { return acquire_lock_; }

 private:
  std::deque<PageLocal> pages_;
  std::atomic<std::uint64_t> clock_{1};
  std::atomic<std::uint64_t> last_release_time_{0};
  std::vector<std::unique_ptr<PageList>> dirty_;
  std::vector<std::unique_ptr<PageList>> nle_;
  std::atomic<std::uint32_t> barrier_arrived_mask_{0};
  SpinLock acquire_lock_;
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_PAGE_TABLE_HPP_
