#include "cashmere/protocol/directory_sharded.hpp"

#include <sys/mman.h>

#include "cashmere/common/logging.hpp"

namespace cashmere {

namespace {

std::uint32_t RoundUpPow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

ShardedDirectory::ShardedDirectory(const Config& cfg, McHub& hub, const HomeTable& homes)
    : DirectoryBackend(cfg),
      hub_(hub),
      homes_(homes),
      segment_pages_(cfg.dir.segment_pages),
      segment_words_(static_cast<std::size_t>(cfg.dir.segment_pages) *
                     static_cast<std::size_t>(units_)),
      cache_mask_(RoundUpPow2(cfg.dir.cache_entries) - 1),
      entries_bytes_(((cfg.pages() + segment_pages_ - 1) / segment_pages_) * segment_words_ *
                     kWordBytes),
      touched_((cfg.pages() + segment_pages_ - 1) / segment_pages_),
      caches_(static_cast<std::size_t>(units_)),
      order_locks_(kNumOrderLocks) {
  CSM_CHECK(units_ <= kMaxProcs);  // a sharer set must fit one 32-bit MC word
  // Anonymous memory reads as zero until first written, so no entry needs
  // initializing; NORESERVE keeps untouched segments free of commit charge.
  void* p = mmap(nullptr, entries_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CSM_CHECK(p != MAP_FAILED);
  entries_ = static_cast<std::uint32_t*>(p);
  for (UnitCache& cache : caches_) {
    cache.entries = std::vector<CacheEntry>(cache_mask_ + 1);
  }
}

ShardedDirectory::~ShardedDirectory() { munmap(entries_, entries_bytes_); }

std::uint32_t* ShardedDirectory::EnsureSegment(PageId page) {
  std::atomic<bool>& touched = touched_[SegmentIndex(page)];
  if (!touched.load(std::memory_order_relaxed) &&
      !touched.exchange(true, std::memory_order_relaxed)) {
    segments_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  return SegmentFor(page);
}

void ShardedDirectory::FillLocked(CacheEntry& e, PageId page, UnitId reader) {
  const std::uint32_t* seg = SegmentFor(page);
  for (int u = 0; u < units_; ++u) {
    e.words[u] = LoadWord32(&seg[SlotOf(page, u)]);
  }
  e.page = page;
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (ShardOwner(page) != reader) {
    // Entry fetch from the owner: one request word out, the entry back.
    hub_.AccountWrite(Traffic::kDirectory,
                      kWordBytes * (1 + static_cast<std::size_t>(units_)));
  }
}

DirWord ShardedDirectory::Read(PageId page, UnitId unit) {
  // Own-word lookup (reader == unit). Exact: the unit's own word in a live
  // cache entry is maintained by write-through under the entry lock, and a
  // miss refills from the authoritative entry.
  CacheEntry& e = EntryFor(unit, page);
  SpinLockGuard guard(e.lock);
  if (e.page != page) {
    FillLocked(e, page, unit);
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return DirWord::Unpack(e.words[unit]);
}

DirWriteResult ShardedDirectory::Write(PageId page, UnitId unit, DirWord word) {
  CsmAssertUnitWriter(unit, "ShardedDirectory::Write");
  std::uint32_t* seg = EnsureSegment(page);
  {
    SpinLockGuard order(OrderLockFor(page));
    // csm-lint: allow(raw-dir-write) -- ShardedDirectory::Write IS the
    // backend's word-mutation funnel; the store lands in the owner-side
    // entry inside its MC write order.
    StoreWord32(&seg[SlotOf(page, unit)], word.Pack());
  }
  DirWriteResult res;
  res.p2p = true;
  if (ShardOwner(page) != unit) {
    res.wire_bytes = static_cast<std::uint32_t>(kWordBytes);
    hub_.AccountWrite(Traffic::kDirectory, kWordBytes);
  }
  // Write-through so the unit's own-word reads stay exact while the entry
  // is cached. Other units' cached copies go stale until their next
  // write-notice invalidation or miss — by design (freshness contract).
  CacheEntry& e = EntryFor(unit, page);
  SpinLockGuard guard(e.lock);
  if (e.page == page) {
    e.words[unit] = word.Pack();
  }
  return res;
}

DirWriteResult ShardedDirectory::WriteAndSnapshot(PageId page, UnitId unit, DirWord word,
                                                  std::uint32_t* snapshot) {
  CsmAssertUnitWriter(unit, "ShardedDirectory::WriteAndSnapshot");
  std::uint32_t* seg = EnsureSegment(page);
  {
    // The claim and the snapshot execute inside the entry's MC write
    // order, owner-side: two concurrent claimants serialize here, and the
    // one ordered second sees the first in its snapshot and withdraws —
    // the same arbitration the replicated broadcast provides.
    SpinLockGuard order(OrderLockFor(page));
    // csm-lint: allow(raw-dir-write) -- owner-side ordered claim store;
    // the snapshot below must observe it atomically with the entry.
    StoreWord32(&seg[SlotOf(page, unit)], word.Pack());
    for (int u = 0; u < units_; ++u) {
      snapshot[u] = LoadWord32(&seg[SlotOf(page, u)]);
    }
  }
  DirWriteResult res;
  res.p2p = true;
  if (ShardOwner(page) != unit) {
    // Claim word to the owner plus the snapshot reply.
    res.wire_bytes =
        static_cast<std::uint32_t>(kWordBytes * (1 + static_cast<std::size_t>(units_)));
    hub_.AccountWrite(Traffic::kDirectory, res.wire_bytes);
  }
  // The snapshot is the freshest possible entry image: refresh the
  // claimer's cache slot with it.
  CacheEntry& e = EntryFor(unit, page);
  SpinLockGuard guard(e.lock);
  e.page = page;
  for (int u = 0; u < units_; ++u) {
    e.words[u] = snapshot[u];
  }
  return res;
}

bool ShardedDirectory::AnyOtherSharer(PageId page, UnitId self) {
  // Cached query: a stale answer only mis-gates the claim *attempt*; the
  // claim itself is arbitrated by WriteAndSnapshot's owner-side snapshot.
  CacheEntry& e = EntryFor(self, page);
  SpinLockGuard guard(e.lock);
  if (e.page != page) {
    FillLocked(e, page, self);
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  for (int u = 0; u < units_; ++u) {
    if (u == self) {
      continue;
    }
    const DirWord w = DirWord::Unpack(e.words[u]);
    if (w.perm != Perm::kInvalid || w.exclusive) {
      return true;
    }
  }
  return false;
}

UnitId ShardedDirectory::ExclusiveHolder(PageId page, UnitId reader) {
  // Cached query: a missed holder is caught by the fault path's timestamp
  // check plus the authoritative ExclusiveHolderFresh in FetchPage (a
  // claim can only have succeeded while our word was invalid, which
  // implies our copy is not timestamp-valid — see DESIGN.md §13).
  CacheEntry& e = EntryFor(reader, page);
  SpinLockGuard guard(e.lock);
  if (e.page != page) {
    FillLocked(e, page, reader);
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  for (int u = 0; u < units_; ++u) {
    if (DirWord::Unpack(e.words[u]).exclusive) {
      return u;
    }
  }
  return -1;
}

UnitId ShardedDirectory::ExclusiveHolderFresh(PageId page, UnitId reader) {
  CacheEntry& e = EntryFor(reader, page);
  SpinLockGuard guard(e.lock);
  FillLocked(e, page, reader);
  for (int u = 0; u < units_; ++u) {
    if (DirWord::Unpack(e.words[u]).exclusive) {
      return u;
    }
  }
  return -1;
}

int ShardedDirectory::Sharers(PageId page, UnitId exclude, UnitId* out) {
  // Authoritative: the release path must see a unit that joined the
  // sharing set an instant ago (its directory update is ordered before
  // its fetch), or that unit would miss a write notice and read stale
  // data. Reads the owner-side entry directly; with units <= 32 the
  // sharer set crosses the wire as a single word.
  const std::uint32_t* seg = SegmentFor(page);
  if (exclude >= 0 && ShardOwner(page) != exclude) {
    // Request word to the owner, sharer-bitmask word back.
    hub_.AccountWrite(Traffic::kDirectory, 2 * kWordBytes);
  }
  int n = 0;
  for (int u = 0; u < units_; ++u) {
    if (u == exclude) {
      continue;
    }
    const DirWord w = DirWord::Unpack(LoadWord32(&seg[SlotOf(page, u)]));
    if (w.perm != Perm::kInvalid || w.exclusive) {
      out[n++] = u;
    }
  }
  return n;
}

void ShardedDirectory::InvalidateCached(UnitId reader, PageId page) {
  CacheEntry& e = EntryFor(reader, page);
  SpinLockGuard guard(e.lock);
  if (e.page == page) {
    e.page = kNoCachedPage;
  }
}

std::size_t ShardedDirectory::ResidentBytes() const {
  const std::size_t segment_bytes =
      segments_allocated_.load(std::memory_order_relaxed) * segment_words_ * kWordBytes;
  const std::size_t cache_bytes = static_cast<std::size_t>(units_) *
                                  (static_cast<std::size_t>(cache_mask_) + 1) *
                                  sizeof(CacheEntry);
  return segment_bytes + cache_bytes;
}

std::unique_ptr<DirectoryBackend> MakeDirectory(const Config& cfg, McHub& hub,
                                                const HomeTable& homes) {
  if (cfg.dir.mode == DirMode::kSharded) {
    return std::make_unique<ShardedDirectory>(cfg, hub, homes);
  }
  return std::make_unique<GlobalDirectory>(cfg, hub);
}

}  // namespace cashmere
