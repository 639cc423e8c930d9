// Single-writer ownership annotations and a dynamic verifier.
//
// Several protocol structures are lock-free because exactly one processor (or
// one unit) ever writes them: global-directory words, per-processor
// TraceRings, and per-processor Stats counters. Nothing in
// the type system enforces "exactly one writer", so this header provides:
//
//  1. CSM_SINGLE_WRITER(owner) — a declarative, zero-cost annotation naming
//     the owning writer of a field. Purely documentation for readers and for
//     tools/csm_lint (which treats annotated files as audited).
//  2. OwnerCell — an optional dynamic verifier embedded next to a
//     single-writer structure. It records the processor that first writes
//     through it and aborts the process if a different bound processor ever
//     writes. Checks are runtime-gated (default on in !NDEBUG builds, off
//     under NDEBUG) so release hot paths pay one relaxed load + predicted
//     branch; tests force them on via SetOwnershipChecksForTesting().
//
// Threads advertise their protocol identity with OwnershipBindThread(),
// called by Runtime next to TraceBindThread(). Writes from unbound threads
// (the orchestrator folding per-proc stats after join, test harness setup)
// are exempt: single-writer only has meaning while processors run
// concurrently.
#ifndef CASHMERE_COMMON_OWNERSHIP_HPP_
#define CASHMERE_COMMON_OWNERSHIP_HPP_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "cashmere/common/types.hpp"

// Declarative single-writer annotation: names the owner of the field that
// follows. Expands to nothing; the dynamic check lives in OwnerCell.
//   CSM_SINGLE_WRITER("owning processor's shard index")
//   std::uint32_t bits[kMapWords];
#define CSM_SINGLE_WRITER(owner)

namespace cashmere {

namespace ownership_internal {

// Runtime gate. Default: on in debug builds, off when NDEBUG (release /
// RelWithDebInfo) so the verifier costs one relaxed load on hot paths.
#if defined(NDEBUG)
inline constexpr bool kOwnershipChecksDefault = false;
#else
inline constexpr bool kOwnershipChecksDefault = true;
#endif

inline std::atomic<bool> g_checks_enabled{kOwnershipChecksDefault};

struct ThreadIdentity {
  ProcId proc = -1;   // -1 = unbound (external/orchestrator thread)
  UnitId unit = -1;
  int override_depth = 0;  // >0 inside an OwnershipOverrideScope
};

inline thread_local ThreadIdentity t_identity;

[[noreturn]] inline void Die(const char* what, ProcId writer, ProcId owner) {
  std::fprintf(stderr,
               "cashmere ownership violation: %s: proc %d wrote a "
               "single-writer value owned by proc %d\n",
               what, static_cast<int>(writer), static_cast<int>(owner));
  std::abort();
}

}  // namespace ownership_internal

inline bool OwnershipChecksEnabled() {
  return ownership_internal::g_checks_enabled.load(std::memory_order_relaxed);
}

// Tests flip the gate explicitly (the tier-1 build defines NDEBUG, so the
// default would otherwise hide the abort the ownership test asserts).
inline void SetOwnershipChecksForTesting(bool enabled) {
  ownership_internal::g_checks_enabled.store(enabled,
                                             std::memory_order_relaxed);
}

// Bind the calling thread to its protocol identity. Runtime::Run calls this
// in each processor thread next to TraceBindThread.
inline void OwnershipBindThread(ProcId proc, UnitId unit) {
  ownership_internal::t_identity.proc = proc;
  ownership_internal::t_identity.unit = unit;
}

inline void OwnershipUnbindThread() {
  ownership_internal::t_identity.proc = -1;
  ownership_internal::t_identity.unit = -1;
}

inline ProcId OwnershipBoundProc() {
  return ownership_internal::t_identity.proc;
}
inline UnitId OwnershipBoundUnit() {
  return ownership_internal::t_identity.unit;
}

// Scoped exemption for the documented exceptions to single-writer rules —
// today only superpage home relocation, which rewrites another unit's
// directory word while holding the global home lock.
class OwnershipOverrideScope {
 public:
  OwnershipOverrideScope() { ++ownership_internal::t_identity.override_depth; }
  ~OwnershipOverrideScope() { --ownership_internal::t_identity.override_depth; }
  OwnershipOverrideScope(const OwnershipOverrideScope&) = delete;
  OwnershipOverrideScope& operator=(const OwnershipOverrideScope&) = delete;
};

inline bool OwnershipOverrideActive() {
  return ownership_internal::t_identity.override_depth > 0;
}

// Abort unless the calling thread is bound to `unit` (or unbound, overridden,
// or checks are off). Guards APIs whose single-writer owner is named by
// argument rather than by an embedded cell — the global directory.
inline void CsmAssertUnitWriter(UnitId unit, const char* what) {
  if (!OwnershipChecksEnabled()) return;
  const auto& id = ownership_internal::t_identity;
  if (id.unit < 0 || id.override_depth > 0) return;
  if (id.unit != unit) {
    // csm-lint: allow(fault-path-signal-safety) -- violation diagnostic
    // immediately before std::abort; the process dies either way
    std::fprintf(stderr,
                 "cashmere ownership violation: %s: unit %d wrote a "
                 "single-writer value owned by unit %d\n",
                 what, static_cast<int>(id.unit), static_cast<int>(unit));
    std::abort();
  }
}

// Dynamic single-writer verifier, embedded next to the structure it guards.
// The atomic member is always present (identical layout in every build type,
// so debug/release object files never disagree on struct offsets); whether
// NoteWrite does anything is the runtime gate above.
class OwnerCell {
 public:
  static constexpr std::int32_t kUnowned = -1;

  // Record/verify a write by the calling thread. First bound writer claims
  // the cell; any later write by a *different* bound processor aborts.
  void NoteWrite(const char* what) {
    if (!OwnershipChecksEnabled()) return;
    const auto& id = ownership_internal::t_identity;
    if (id.proc < 0 || id.override_depth > 0) return;
    std::int32_t owner = owner_.load(std::memory_order_relaxed);
    if (owner == id.proc) return;
    if (owner == kUnowned) {
      if (owner_.compare_exchange_strong(owner, id.proc,
                                         std::memory_order_relaxed)) {
        return;
      }
      if (owner == id.proc) return;  // lost the race to ourselves elsewhere
    }
    ownership_internal::Die(what, id.proc, static_cast<ProcId>(owner));
  }

  // Release the claim (structure recycled for a new owner, e.g. TraceRing
  // reset between runs or a shard re-seeded for a new twin generation).
  void Reset() { owner_.store(kUnowned, std::memory_order_relaxed); }

  std::int32_t OwnerForTesting() const {
    return owner_.load(std::memory_order_relaxed);
  }

  // Copying a stats object (aggregation snapshots) must not propagate the
  // claim: the copy is a fresh value with no writer history.
  OwnerCell() = default;
  OwnerCell(const OwnerCell&) {}
  OwnerCell& operator=(const OwnerCell&) { return *this; }

 private:
  std::atomic<std::int32_t> owner_{kUnowned};
};

}  // namespace cashmere

#endif  // CASHMERE_COMMON_OWNERSHIP_HPP_
