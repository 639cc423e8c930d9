// The replicated global page directory (Section 2.3, Figure 1).
//
// Each page has one 32-bit word per coherence unit; the word is written
// *only* by that unit, which is what makes the directory lock-free: 32 bits
// is the atomic write grain of both the Alpha and the Memory Channel, so a
// single-writer word needs no lock. Every unit holds a full replica and
// updates are ordered MC broadcasts (doubled to the writer's own replica in
// software), so every query is a local-replica scan: free on the wire and
// always authoritative.
//
// Word layout (this reproduction):
//   bits 0-1   loosest permission of any processor on the unit
//   bit  2     unit claims the page in exclusive mode
//   bits 3-8   processor id holding the page exclusively (valid with bit 2)
// The home-node id lives in a separate replicated table (HomeTable); the
// paper stores it redundantly in every word, which carries the same
// information.
//
// The 2L-globallock ablation (Section 3.3.5) instead guards each entry with
// a global lock; the protocol then charges the locked update cost and
// serializes on a real per-entry lock (EntryLock).
#ifndef CASHMERE_PROTOCOL_DIRECTORY_HPP_
#define CASHMERE_PROTOCOL_DIRECTORY_HPP_

#include <cstdint>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/ownership.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/mc/hub.hpp"

namespace cashmere {

struct DirWord {
  Perm perm = Perm::kInvalid;
  bool exclusive = false;
  ProcId excl_proc = 0;

  std::uint32_t Pack() const {
    return static_cast<std::uint32_t>(perm) | (exclusive ? 4u : 0u) |
           (static_cast<std::uint32_t>(excl_proc & 0x3f) << 3);
  }
  static DirWord Unpack(std::uint32_t w) {
    DirWord d;
    d.perm = static_cast<Perm>(w & 0x3u);
    d.exclusive = (w & 4u) != 0;
    d.excl_proc = static_cast<ProcId>((w >> 3) & 0x3f);
    return d;
  }
};

class GlobalDirectory {
 public:
  GlobalDirectory(const Config& cfg, McHub& hub);
  GlobalDirectory(const GlobalDirectory&) = delete;
  GlobalDirectory& operator=(const GlobalDirectory&) = delete;

  DirWord Read(PageId page, UnitId unit) const;

  // Writes `unit`'s word for `page` via ordered MC broadcast. Only the
  // owning unit may call this for its own word (single-writer invariant),
  // except during home relocation which holds the global home lock and
  // enters an OwnershipOverrideScope. Enforced dynamically via
  // CsmAssertUnitWriter when ownership checks are on.
  void Write(PageId page, UnitId unit, DirWord word);

  // Ordered write that also returns a consistent snapshot taken inside the
  // MC total order: after this returns, `snapshot[u]` holds every unit's
  // word as ordered after our write. Used for race-free exclusive claims.
  void WriteAndSnapshot(PageId page, UnitId unit, DirWord word, std::uint32_t* snapshot);

  // True if any unit other than `self` has a non-invalid permission or an
  // exclusive claim.
  bool AnyOtherSharer(PageId page, UnitId self) const;
  // Unit holding an exclusive claim, or -1.
  UnitId ExclusiveHolder(PageId page) const;
  // Units (other than `exclude`) with non-invalid permission or an
  // exclusive claim. Fills `out` (capacity >= units()); returns the count.
  // Array-based so the fault path never allocates.
  int Sharers(PageId page, UnitId exclude, UnitId* out) const;

  // Per-entry lock for the 2L-globallock ablation.
  SpinLock& EntryLock(PageId page) { return entry_locks_[page % kNumEntryLocks].lock; }

  int units() const { return units_; }

 private:
  std::uint32_t* WordPtr(PageId page, UnitId unit) {
    return &words_[static_cast<std::size_t>(page) * static_cast<std::size_t>(units_) +
                   static_cast<std::size_t>(unit)];
  }
  const std::uint32_t* WordPtr(PageId page, UnitId unit) const {
    return &words_[static_cast<std::size_t>(page) * static_cast<std::size_t>(units_) +
                   static_cast<std::size_t>(unit)];
  }

  static constexpr std::size_t kNumEntryLocks = 256;
  struct alignas(64) PaddedLock {
    SpinLock lock;
  };

  int units_;
  McHub& hub_;
  // Directory writes are ordered among themselves (MC guarantees a total
  // order per region). One lock per directory models that order, so two
  // Runtimes in one process never serialize on each other. It guards no
  // field — the single-writer words below need no lock to read — so there
  // is no GUARDED_BY.
  SpinLock write_order_lock_;
  // One 32-bit word per (page, unit); word (p, u) is written only by unit u
  // (home relocation excepted), so readers need no lock — the MC's 32-bit
  // write atomicity is modeled by the word_access helpers.
  CSM_SINGLE_WRITER("unit u for word (page, u)")
  std::vector<std::uint32_t> words_;
  std::vector<PaddedLock> entry_locks_;
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_DIRECTORY_HPP_
