// The Cashmere protocol family (Section 2).
//
// One implementation covers the paper's five protocols; they differ only in
// unit topology and a few strategy points:
//
//   Cashmere-2L   units = SMP nodes; two-way diffing; lock-free directory
//                 and write-notice structures.
//   Cashmere-2LS  like 2L, but page updates and releases shoot down all
//                 concurrent local write mappings (flush + discard twin)
//                 instead of merging with incoming diffs.
//   2L-globallock Section 3.3.5 ablation: directory entries and write
//                 notice lists guarded by cluster-wide locks.
//   Cashmere-1LD  units = individual processors; twins + outgoing diffs.
//   Cashmere-1L   like 1LD, but modifications are costed as write-through
//                 ("write doubling") rather than release-time diffs.
//
// The one-level protocols can additionally run with the home-node
// optimization: processors on the home processor's SMP node work directly
// on the master copy and skip twins/invalidations for those pages.
//
// Concurrency discipline (see DESIGN.md):
//   - Per-page-per-unit state is guarded by PageLocal::lock; no code ever
//     waits (polls) while holding a page lock. Fetches mark the page
//     "fetch in progress", drop the lock, and wait; concurrent local
//     faults on the same page wait for the fetch and reuse the new copy,
//     which is exactly the paper's intra-node fetch coalescing.
//   - Exclusive-mode claims are resolved through the directory's ordered
//     broadcast (MC total ordering): a claimant re-reads the directory
//     inside the order and withdraws if another unit is visible.
#ifndef CASHMERE_PROTOCOL_CASHMERE_PROTOCOL_HPP_
#define CASHMERE_PROTOCOL_CASHMERE_PROTOCOL_HPP_

#include <memory>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/thread_safety.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/mc/hub.hpp"
#include "cashmere/msg/message_layer.hpp"
#include "cashmere/protocol/coherence_log.hpp"
#include "cashmere/protocol/directory.hpp"
#include "cashmere/protocol/home_table.hpp"
#include "cashmere/protocol/page_table.hpp"
#include "cashmere/protocol/twin_pool.hpp"
#include "cashmere/protocol/write_notice.hpp"
#include "cashmere/runtime/context.hpp"
#include "cashmere/vm/arena.hpp"
#include "cashmere/vm/view.hpp"

namespace cashmere {

class CashmereProtocol : public RequestHandler {
 public:
  struct Deps {
    const Config* cfg = nullptr;
    McHub* hub = nullptr;
    MessageLayer* msg = nullptr;
    GlobalDirectory* dir = nullptr;
    HomeTable* homes = nullptr;
    WriteNoticeBoard* notices = nullptr;
    std::vector<std::unique_ptr<Arena>>* arenas = nullptr;     // per unit
    std::vector<std::unique_ptr<View>>* views = nullptr;       // per processor
    std::vector<std::unique_ptr<TwinPool>>* twins = nullptr;   // per unit
    std::vector<std::unique_ptr<UnitState>>* units = nullptr;  // per unit
    // Non-null iff Config::async.release: the per-unit CoherenceLogs the
    // release path publishes into and the cache agents drain.
    CoherenceEngine* coh = nullptr;
  };

  explicit CashmereProtocol(Deps deps);

  // --- Entry points -----------------------------------------------------
  // Page fault by ctx's processor (from SIGSEGV or the software driver).
  // Escaped from the thread-safety analysis: the fault loop conditionally
  // drops and retakes the page lock across iterations (fetch coalescing,
  // fetch-in-progress hand-off), a dance beyond what the static analysis
  // can follow. The lock pairing is exercised by every protocol test.
  void OnFault(Context& ctx, PageId page, bool is_write)
      CSM_NO_THREAD_SAFETY_ANALYSIS;

  // Consistency actions at a lock acquire / flag read / barrier departure.
  void AcquireSync(Context& ctx);
  // Consistency actions before a lock release / flag set / barrier
  // arrival. `barrier_arrival` enables the last-local-writer flush rule.
  void ReleaseSync(Context& ctx, bool barrier_arrival);

  // Barrier-episode bookkeeping (arrival mask for the flush rule).
  void BarrierArriveBegin(Context& ctx);
  void BarrierDepartEnd(Context& ctx);

  // Explicit requests from remote units (executed on a polling processor).
  void HandleRequest(const Request& request) override;

  // Poll for and service pending requests (Figure 5's poll sequence).
  void Poll(Context& ctx);

  // End-of-run quiesce: flushes exclusive-mode pages and any remaining
  // dirty pages of the calling processor's unit to the master copies so
  // results can be read out. Called once per unit after a full barrier.
  void FinalFlush(Context& ctx);

  // Async drain policy: applies one published log record on the
  // cache-agent thread of `unit` — Propagate, then decrements the page's
  // pending-flush count. The caller (the agent loop in Runtime::Run)
  // advances `clock` to the record's publish time first and calls
  // CoherenceLog::PopApplied afterwards, in that order, so
  // a gated acquirer that observes the advanced applied_seq also observes
  // the applied diff and the posted notices. Takes no page locks (see
  // docs/concurrency.md: publishers may spin on a full ring while holding
  // one).
  void AgentApply(UnitId unit, const CoherenceRecord& rec, VirtualClock& clock,
                  Stats& stats);

  // --- Introspection (tests) ---------------------------------------------
  PageLocal& PageState(UnitId unit, PageId page) { return Unit(unit).Page(page); }
  UnitState& Unit(UnitId unit) { return *(*deps_.units)[static_cast<std::size_t>(unit)]; }
  bool UnitAtMaster(UnitId unit, PageId page) const;
  std::byte* MasterPtr(PageId page) const;
  std::byte* WorkingPtr(UnitId unit, PageId page) const;

 private:
  // Fault machinery.
  bool NeedFetch(const PageLocal& pl, UnitId unit, PageId page) const
      CSM_REQUIRES(pl.lock);
  // Takes the page lock internally (fetch_in_progress is set, so this
  // processor is the page's only fetcher); must not be entered holding it.
  void FetchPage(Context& ctx, PageLocal& pl, PageId page) CSM_EXCLUDES(pl.lock);
  // Installs a fetched image and stamps the copy valid as of
  // `fetch_start_ts`. Installs nothing if a local diff flush happened since
  // the request (`pl.diff_flushes` moved past `diff_flushes_at_request`):
  // the copy stays stale and the fault refetches.
  // `piggyback` distinguishes images piggybacked on a break-exclusive reply
  // from home fetches; the replay checker exempts piggybacks from the
  // write-notice-before-diff invariant.
  void ApplyIncoming(Context& ctx, PageLocal& pl, PageId page, const std::byte* image,
                     bool piggyback, std::uint64_t fetch_start_ts,
                     std::uint32_t diff_flushes_at_request) CSM_REQUIRES(pl.lock);
  void BreakRemoteExclusive(Context& ctx, PageLocal& pl, PageId page, UnitId holder,
                            std::uint32_t diff_flushes_at_request) CSM_EXCLUDES(pl.lock);
  void WaitFetchDone(Context& ctx, PageLocal& pl) CSM_EXCLUDES(pl.lock);
  std::uint64_t AwaitReply(Context& ctx, std::uint64_t seq);
  // Spins while `pred()` holds, servicing this unit's incoming requests
  // between checks, as the paper's polling instrumentation does: this is
  // what keeps two mutually-waiting units from deadlocking. Never call it
  // holding a page lock. A template, not std::function, because the fault
  // path never allocates.
  template <typename Pred>
  void ServeWhile(Context& ctx, Pred pred) {
    Backoff backoff;
    while (pred()) {
      if (deps_.msg->HasPending(ctx.unit())) {
        deps_.msg->Poll(ctx.unit());
        backoff.Reset();
      } else {
        backoff.Pause();
      }
    }
  }

  // Write-fault helpers (page lock held).
  void EnterExclusiveOrShare(Context& ctx, PageLocal& pl, PageId page)
      CSM_REQUIRES(pl.lock);
  void EnsureTwin(Context& ctx, PageLocal& pl, PageId page) CSM_REQUIRES(pl.lock);
  void ShootdownLocalWriters(Context& ctx, PageLocal& pl, PageId page)
      CSM_REQUIRES(pl.lock);
  // The traced counterpart of PageLocal::SetTwinValid (page lock held):
  // emits kTwinCreate/kTwinDiscard carrying the post-toggle generation so
  // the replay checker can verify the twin-iff-odd-generation invariant.
  void SetTwinTraced(PageLocal& pl, PageId page, bool valid) CSM_REQUIRES(pl.lock);

  // Release machinery.
  void FlushPage(Context& ctx, PageLocal& pl, PageId page, std::uint64_t release_start,
                 bool barrier_arrival) CSM_EXCLUDES(pl.lock);
  // Units (bitmask) a release of `page` by `unit` must notify: the
  // directory's sharing set minus master-sharing units.
  std::uint32_t WriteNoticeTargets(UnitId unit, PageId page);
  // The releaser's half of every release flush (page lock held): when the
  // unit holds a twin away from the master copy, block-scans working-vs-
  // twin and serializes the RLE runs into `rec.slot`; records the payload
  // words and the home's locality either way.
  void EncodeRelease(Context& ctx, PageLocal& pl, PageId page, bool flush_update,
                     CoherenceRecord& rec) CSM_REQUIRES(pl.lock);
  // The one place a release's global side effects happen: replays the
  // record's diff into the home node's master copy (kDiffRunApplyBytes),
  // occupies the serial MC bus for its payload, charges the diff cost (the
  // write-doubling cost under 1L), and posts the write notices from `unit`.
  // Runs on the releaser (synchronous policy) or on `unit`'s cache agent
  // (AgentApply); either way it reads the write-notice targets after the
  // replay, and charges `clock`/`stats` of whichever runs it. Takes no
  // page locks.
  void Propagate(UnitId unit, const CoherenceRecord& rec, VirtualClock& clock, Stats& stats);
  // Async drain policy (Config::async.release): unless there is nothing to
  // propagate (no diff and no sharer to notify), copies `rec` into the
  // unit's CoherenceLog, bumps the page's pending-flush count, records the
  // new sequence in the page and in ctx.seen_seq(), and charges only the
  // publish cost: Propagate's costs land on the cache agent (AgentApply).
  void PublishCoherenceRecord(Context& ctx, PageLocal& pl, CoherenceRecord& rec)
      CSM_REQUIRES(pl.lock);
  // Happens-before gate at the top of AcquireSync (async mode): waits
  // until every unit whose releases precede this acquire (per
  // ctx.seen_seq(), max-folded through sync objects) has applied the
  // corresponding log prefix, then reconciles the acquirer's clock with
  // the latest gated apply time. Gates on exactly the happens-before
  // predecessors — never on unrelated in-flight traffic. No-op in
  // synchronous mode.
  void GateOnAppliedSeq(Context& ctx);

  // Directory helpers (charge costs, honour the global-lock ablation).
  void UpdateDirWord(Context& ctx, PageId page, DirWord word);
  void RefreshLoosestPerm(Context& ctx, PageLocal& pl, PageId page)
      CSM_REQUIRES(pl.lock);

  // First touch (Section 2.3, "Home node selection").
  // Escaped from the thread-safety analysis: acquires the global home lock
  // through a TryLock-poll loop (servicing requests between attempts) and
  // releases it on three different exits — beyond the analysis.
  void MaybeFirstTouch(Context& ctx, PageId page) CSM_NO_THREAD_SAFETY_ANALYSIS;
  void RelocateSuperpage(Context& ctx, std::size_t superpage, UnitId new_home);

  // Topology helpers.
  View& ViewOf(ProcId proc) { return *(*deps_.views)[static_cast<std::size_t>(proc)]; }
  std::byte* TwinPtr(UnitId unit, PageId page) const {
    return (*deps_.twins)[static_cast<std::size_t>(unit)]->TwinPtr(page);
  }
  ProcId GlobalProc(UnitId unit, int local_index) const {
    return cfg_.FirstProcOfUnit(unit) + local_index;
  }
  void ProtectLocal(Context& ctx, PageLocal& pl, UnitId unit, int local_index, PageId page,
                    Perm perm) CSM_REQUIRES(pl.lock);
  // Flushes the processor's queued permission changes as coalesced
  // mprotect ranges (no-op outside SIGSEGV fault mode, where nothing is
  // ever queued). Every protocol episode that queued transitions must call
  // this before user code could observe a stale-loose hardware mapping;
  // see DESIGN.md §11 for the commit-point inventory.
  void CommitPermBatch(Context& ctx);

 public:
  // PermBatch resolver: re-reads the protocol's current per-processor perm
  // for (proc, page) at commit time, superseding the queued hint. `self`
  // is the CashmereProtocol instance.
  static Perm ResolveQueuedPerm(void* self, ProcId proc, PageId page, Perm queued);

 private:
  bool IsWriteDouble() const {
    return cfg_.protocol == ProtocolVariant::kOneLevelWriteDouble;
  }
  bool IsShootdown() const {
    return cfg_.protocol == ProtocolVariant::kTwoLevelShootdown;
  }
  bool IsGlobalLock() const {
    return cfg_.protocol == ProtocolVariant::kTwoLevelGlobalLock;
  }

  Deps deps_;
  const Config& cfg_;
};

// RAII protocol-section guard: converts elapsed CPU time into user virtual
// time on entry and restarts the user-time clock on exit.
class ProtocolScope {
 public:
  explicit ProtocolScope(Context& ctx) : ctx_(ctx) {
    ctx_.clock().EnterProtocol(ctx_.stats());
  }
  ~ProtocolScope() { ctx_.clock().ExitProtocol(); }
  ProtocolScope(const ProtocolScope&) = delete;
  ProtocolScope& operator=(const ProtocolScope&) = delete;

 private:
  Context& ctx_;
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_CASHMERE_PROTOCOL_HPP_
