// Write-notice structures (Section 2.3, Figure 4).
//
// Each unit exposes a globally writable write-notice list with one *bin*
// per remote unit (so every bin has a single remote writer unit and needs
// no global lock). On an acquire, a processor drains the global bins and
// distributes the notices to per-processor second-level lists; each
// second-level list is a bitmap plus a queue protected by a local (ll/sc)
// lock, so duplicate notices cost one bit test.
//
// Both levels are bounded by the page count: a bin holds at most one
// pending entry per page (the bitmap deduplicates), which is exactly what
// makes the structure allocation-free and overflow-free.
#ifndef CASHMERE_PROTOCOL_WRITE_NOTICE_HPP_
#define CASHMERE_PROTOCOL_WRITE_NOTICE_HPP_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/thread_safety.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/mc/hub.hpp"

namespace cashmere {

// A deduplicating page queue: bitmap + ring. One producer side (guarded by
// `producer_lock` when there can be several producing processors) and one
// consumer at a time.
class PageNoticeQueue {
 public:
  explicit PageNoticeQueue(std::size_t pages);
  PageNoticeQueue(const PageNoticeQueue&) = delete;
  PageNoticeQueue& operator=(const PageNoticeQueue&) = delete;

  // Returns true if the page was newly enqueued (bit was clear).
  // Producer side: requires producer_lock when several processors can
  // produce into this queue (both call sites below take it).
  bool Post(PageId page) CSM_REQUIRES(producer_lock);
  // Drains all pending notices, invoking fn(page) for each. The bit is
  // cleared *before* fn runs, so a concurrent Post re-enqueues rather than
  // being lost. Returns the number drained.
  template <typename Fn>
  int Drain(Fn&& fn) {
    int n = 0;
    while (true) {
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (tail == head_.load(std::memory_order_acquire)) {
        break;
      }
      const PageId page = ring_[tail % ring_.size()];
      tail_.store(tail + 1, std::memory_order_release);
      ClearBit(page);
      fn(page);
      ++n;
    }
    return n;
  }

  // Drains at most `max` notices into `out` (bits cleared, as in Drain).
  int DrainUpTo(PageId* out, int max) {
    int n = 0;
    while (n < max) {
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (tail == head_.load(std::memory_order_acquire)) {
        break;
      }
      const PageId page = ring_[tail % ring_.size()];
      tail_.store(tail + 1, std::memory_order_release);
      ClearBit(page);
      out[n++] = page;
    }
    return n;
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }
  // True while a notice for `page` is queued (posted, not yet drained).
  bool Pending(PageId page) const {
    return (bitmap_[page / 32].load(std::memory_order_acquire) & (1u << (page % 32))) != 0;
  }

  SpinLock producer_lock;

 private:
  bool TestAndSetBit(PageId page);
  void ClearBit(PageId page);

  std::vector<std::atomic<std::uint32_t>> bitmap_;
  // ring_ is deliberately NOT GUARDED_BY a lock: slot (h % size) is written
  // by the producer (under producer_lock) strictly before the release store
  // of head_ = h + 1, and read by the consumer only after its acquire load
  // of head_ observes h + 1 — a release/acquire handoff, the same idiom as
  // the message-layer bins. Capacity = page count and the bitmap dedup
  // guarantee head and tail can never be more than `pages` apart, so a slot
  // is never overwritten while still unconsumed.
  std::vector<PageId> ring_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

class WriteNoticeBoard {
 public:
  WriteNoticeBoard(const Config& cfg, McHub& hub);

  // Global level: deposits a notice for `page` into dst_unit's bin for
  // src_unit (an MC remote write).
  void PostGlobal(UnitId dst_unit, UnitId src_unit, PageId page);

  // Drains all of `self`'s global bins; fn(page) is called once per
  // deduplicated notice. Caller distributes to the per-processor lists.
  template <typename Fn>
  int DrainGlobal(UnitId self, Fn&& fn) {
    std::atomic<int>& draining = consumer_locks_[static_cast<std::size_t>(self)].draining;
    draining.fetch_add(1, std::memory_order_acq_rel);
    int n = 0;
    for (int src = 0; src < units_; ++src) {
      if (src == self) {
        continue;
      }
      PageNoticeQueue& bin = GlobalBin(self, src);
      SpinLockGuard guard(consumer_locks_[static_cast<std::size_t>(self)].lock);
      n += bin.Drain(fn);
    }
    draining.fetch_sub(1, std::memory_order_acq_rel);
    return n;
  }

  bool GlobalPending(UnitId self) const;
  // True if a notice for `page` may not have reached `self`'s page state
  // yet: it is queued in one of self's global bins, or a drain is under
  // way (a drain clears a page's bit before it stamps the page's wn_ts).
  bool MayHoldGlobalNotice(UnitId self, PageId page) const;

  // Second level: per-processor lists.
  void PostLocal(ProcId proc, PageId page);
  // Drains the processor's list. The local lock is NOT held across `fn`:
  // callers' callbacks take page locks, while PostLocal is invoked *under*
  // page locks (write-notice distribution) — holding the queue lock across
  // the callback would invert that order and deadlock. Notices are pulled
  // in bounded chunks under the lock, then processed outside it.
  template <typename Fn>
  int DrainLocal(ProcId proc, Fn&& fn) {
    PageNoticeQueue& q = local_[static_cast<std::size_t>(proc)];
    int total = 0;
    while (true) {
      PageId buffer[64];
      int n = 0;
      {
        SpinLockGuard guard(q.producer_lock);  // paper: local ll/sc lock
        n = q.DrainUpTo(buffer, 64);
      }
      if (n == 0) {
        break;
      }
      for (int i = 0; i < n; ++i) {
        fn(buffer[i]);
      }
      total += n;
    }
    return total;
  }

 private:
  PageNoticeQueue& GlobalBin(UnitId dst, UnitId src) {
    return global_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(units_) +
                   static_cast<std::size_t>(src)];
  }
  const PageNoticeQueue& GlobalBin(UnitId dst, UnitId src) const {
    return global_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(units_) +
                   static_cast<std::size_t>(src)];
  }

  struct alignas(64) PaddedLock {
    SpinLock lock;
    std::atomic<int> draining{0};  // DrainGlobal calls under way
  };

  int units_;
  McHub& hub_;
  std::deque<PageNoticeQueue> global_;  // [dst][src]
  std::deque<PageNoticeQueue> local_;   // [proc]
  std::vector<PaddedLock> consumer_locks_;
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_WRITE_NOTICE_HPP_
