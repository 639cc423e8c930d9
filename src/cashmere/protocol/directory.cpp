#include "cashmere/protocol/directory.hpp"

#include "cashmere/common/logging.hpp"

namespace cashmere {

GlobalDirectory::GlobalDirectory(const Config& cfg, McHub& hub)
    : units_(cfg.units()),
      hub_(hub),
      words_(cfg.pages() * static_cast<std::size_t>(units_), 0),
      entry_locks_(kNumEntryLocks) {}

DirWord GlobalDirectory::Read(PageId page, UnitId unit) const {
  return DirWord::Unpack(LoadWord32(WordPtr(page, unit)));
}

void GlobalDirectory::Write(PageId page, UnitId unit, DirWord word) {
  CsmAssertUnitWriter(unit, "GlobalDirectory::Write");
  SpinLockGuard guard(write_order_lock_);
  StoreWord32(WordPtr(page, unit), word.Pack());
  hub_.AccountWrite(Traffic::kDirectory, kWordBytes * static_cast<std::size_t>(units_));
}

void GlobalDirectory::WriteAndSnapshot(PageId page, UnitId unit, DirWord word,
                                       std::uint32_t* snapshot) {
  CsmAssertUnitWriter(unit, "GlobalDirectory::WriteAndSnapshot");
  SpinLockGuard guard(write_order_lock_);
  StoreWord32(WordPtr(page, unit), word.Pack());
  hub_.AccountWrite(Traffic::kDirectory, kWordBytes * static_cast<std::size_t>(units_));
  for (int u = 0; u < units_; ++u) {
    snapshot[u] = LoadWord32(WordPtr(page, u));
  }
}

bool GlobalDirectory::AnyOtherSharer(PageId page, UnitId self) const {
  for (int u = 0; u < units_; ++u) {
    if (u == self) {
      continue;
    }
    const DirWord w = Read(page, u);
    if (w.perm != Perm::kInvalid || w.exclusive) {
      return true;
    }
  }
  return false;
}

UnitId GlobalDirectory::ExclusiveHolder(PageId page) const {
  for (int u = 0; u < units_; ++u) {
    if (Read(page, u).exclusive) {
      return u;
    }
  }
  return -1;
}

int GlobalDirectory::Sharers(PageId page, UnitId exclude, UnitId* out) const {
  int n = 0;
  for (int u = 0; u < units_; ++u) {
    if (u == exclude) {
      continue;
    }
    const DirWord w = Read(page, u);
    if (w.perm != Perm::kInvalid || w.exclusive) {
      out[n++] = u;
    }
  }
  return n;
}

}  // namespace cashmere
