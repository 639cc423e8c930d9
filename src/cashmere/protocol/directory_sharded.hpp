// Hash-sharded point-to-point directory backend (Config::dir.mode =
// sharded; DESIGN.md §13).
//
// Scale problem: the replicated directory costs O(pages x units) words on
// every node and O(units) wire bytes per update — fine at the paper's 8
// nodes x thousands of pages, hostile at millions of pages. Here each
// page's directory entry (all units' words) lives only on its *shard
// owner*, the HomeTable home of the page's superpage, so directory
// placement rides the existing first-touch home locality and follows
// HomeTable::Relocate automatically:
//
//   - A unit updates its word with one point-to-point MC write to the
//     shard owner (4 bytes; free when the updater is the owner) instead of
//     a units-wide broadcast.
//   - Exclusive claims stay race-free: WriteAndSnapshot applies the claim
//     and snapshots the whole entry inside the entry's MC write order,
//     owner-side — the same total-order arbitration as the replicated
//     broadcast, at one entry instead of every replica.
//   - Readers consult a small per-unit direct-mapped entry cache; a miss
//     fetches the entry from the owner (request word + entry reply). The
//     cache is invalidated by the existing write-notice drain path
//     (DirectoryBackend::InvalidateCached), and the unit's own word is
//     kept exact by write-through. Cached other-unit words may be stale;
//     every caller of the cached queries tolerates that (see the
//     freshness contract in directory.hpp and DESIGN.md §13).
//   - Entry storage is one MAP_NORESERVE anonymous reservation, committed
//     by the kernel page by page on first store, so an arena with 10^6
//     mostly-untouched pages costs memory proportional to *touched* pages,
//     not pages x units. Untouched words read as zero (packed DirWord{},
//     all-invalid). Nothing allocates after construction, so the SIGSEGV
//     fault path may write entries freely. Touch is tracked per segment of
//     dir.segment_pages pages for ResidentBytes.
//
// The simulation stores each entry once (as it does for every MC region);
// traffic is accounted as if the words crossed the wire to/from the owner.
// Modeled virtual time per update is identical to the replicated backend
// (the protocol charges dir_update_us either way): the gated win is wire
// bytes and resident memory, not simulated latency.
#ifndef CASHMERE_PROTOCOL_DIRECTORY_SHARDED_HPP_
#define CASHMERE_PROTOCOL_DIRECTORY_SHARDED_HPP_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/thread_safety.hpp"
#include "cashmere/protocol/directory.hpp"
#include "cashmere/protocol/home_table.hpp"

namespace cashmere {

class ShardedDirectory final : public DirectoryBackend {
 public:
  ShardedDirectory(const Config& cfg, McHub& hub, const HomeTable& homes);
  ~ShardedDirectory() override;
  ShardedDirectory(const ShardedDirectory&) = delete;
  ShardedDirectory& operator=(const ShardedDirectory&) = delete;

  DirWord Read(PageId page, UnitId unit) override;
  DirWriteResult Write(PageId page, UnitId unit, DirWord word) override;
  DirWriteResult WriteAndSnapshot(PageId page, UnitId unit, DirWord word,
                                  std::uint32_t* snapshot) override;
  bool AnyOtherSharer(PageId page, UnitId self) override;
  UnitId ExclusiveHolder(PageId page, UnitId reader) override;
  UnitId ExclusiveHolderFresh(PageId page, UnitId reader) override;
  int Sharers(PageId page, UnitId exclude, UnitId* out) override;
  void InvalidateCached(UnitId reader, PageId page) override;

  std::size_t ResidentBytes() const override;
  std::uint64_t CacheHits() const override {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t CacheMisses() const override {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t SegmentsAllocated() const override {
    return segments_allocated_.load(std::memory_order_relaxed);
  }

  // The unit whose node stores `page`'s entry: the HomeTable home of the
  // page's superpage. Follows HomeTable::Relocate (the entry migrates with
  // the superpage's MC mapping; the simulation's single copy needs no
  // data movement, only the accounting changes).
  UnitId ShardOwner(PageId page) const { return homes_.HomeOfPage(page); }

 private:
  static constexpr PageId kNoCachedPage = 0xffffffffu;
  static constexpr std::size_t kNumOrderLocks = 64;

  // One per-unit direct-mapped cache slot: the tag plus every unit's
  // packed word for the cached page. The lock serializes the unit's
  // processors on the slot (fill vs write-through vs invalidate).
  struct alignas(64) CacheEntry {
    SpinLock lock;
    PageId page = kNoCachedPage;
    std::uint32_t words[kMaxProcs] = {};
  };
  struct UnitCache {
    std::vector<CacheEntry> entries;
  };

  std::size_t SegmentIndex(PageId page) const { return page / segment_pages_; }
  std::size_t SlotOf(PageId page, UnitId unit) const {
    return (static_cast<std::size_t>(page % segment_pages_)) *
               static_cast<std::size_t>(units_) +
           static_cast<std::size_t>(unit);
  }
  // The page's segment of the reservation. Untouched words read as packed
  // DirWord{} == 0, i.e. invalid.
  std::uint32_t* SegmentFor(PageId page) const {
    return entries_ + SegmentIndex(page) * segment_words_;
  }
  // SegmentFor, first marking the segment touched (writers only).
  std::uint32_t* EnsureSegment(PageId page);
  CacheEntry& EntryFor(UnitId reader, PageId page) {
    return caches_[static_cast<std::size_t>(reader)]
        .entries[page & cache_mask_];
  }
  // Reads the authoritative entry into `e` under e.lock and charges the
  // owner fetch (request word + entry reply) when `reader` is remote.
  void FillLocked(CacheEntry& e, PageId page, UnitId reader) CSM_REQUIRES(e.lock);
  // MC write-order stripe for the entry (WriteAndSnapshot atomicity vs
  // concurrent updates of the same entry). Striped by page, not by owner,
  // so the lock identity is stable across home relocation.
  SpinLock& OrderLockFor(PageId page) {
    return order_locks_[page % kNumOrderLocks].lock;
  }

  McHub& hub_;
  const HomeTable& homes_;
  std::uint32_t segment_pages_;
  std::size_t segment_words_;
  std::uint32_t cache_mask_;

  // Entry storage (one reservation of every segment) and its per-segment
  // touched flags.
  std::size_t entries_bytes_;
  std::uint32_t* entries_ = nullptr;
  std::vector<std::atomic<bool>> touched_;

  std::vector<UnitCache> caches_;
  std::vector<PaddedLock> order_locks_;

  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> segments_allocated_{0};
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_DIRECTORY_SHARDED_HPP_
