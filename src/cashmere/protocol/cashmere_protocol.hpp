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
    DirectoryBackend* dir = nullptr;
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

  // Async release-path coherence: applies one published log record on the
  // cache-agent thread of `unit` — replays the record's serialized diff
  // into the home node's master copy, posts the recorded write notices,
  // and decrements the page's pending-flush count. The caller (the agent
  // loop in Runtime::Run) advances `clock` to the record's publish time
  // first and calls CoherenceLog::PopApplied afterwards, in that order, so
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
  // `piggyback` distinguishes images piggybacked on a break-exclusive reply
  // from home fetches; the replay checker exempts piggybacks from the
  // write-notice-before-diff invariant.
  void ApplyIncoming(Context& ctx, PageLocal& pl, PageId page, const std::byte* image,
                     bool piggyback) CSM_REQUIRES(pl.lock);
  void BreakRemoteExclusive(Context& ctx, PageLocal& pl, PageId page, UnitId holder)
      CSM_EXCLUDES(pl.lock);
  void WaitFetchDone(Context& ctx, PageLocal& pl) CSM_EXCLUDES(pl.lock);
  std::uint64_t AwaitReply(Context& ctx, std::uint64_t seq);

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
  void SendWriteNotices(Context& ctx, PageId page);
  // Units (bitmask) a release of `page` must notify: the directory's
  // sharing set minus master-sharing units. In async mode this is read at
  // publish time, under the page lock — the same point of the release at
  // which the synchronous path reads it — so the write-notice sets (and
  // the kWriteNotices counters) are identical across modes.
  std::uint32_t WriteNoticeTargets(Context& ctx, PageId page);
  // Async release path (Config::async.release): serializes the page's
  // outgoing diff and write-notice target set into the unit's CoherenceLog
  // instead of replaying synchronously, bumps the page's pending-flush
  // count, records the new sequence in ctx.seen_seq(), and charges only
  // the publish cost — the diff replay, bus occupancy, and write-notice
  // latency move to the cache agent (AgentApply).
  void PublishCoherenceRecord(Context& ctx, PageLocal& pl, PageId page)
      CSM_REQUIRES(pl.lock);
  // Happens-before gate at the top of AcquireSync (async mode): waits
  // until every unit whose releases precede this acquire (per
  // ctx.seen_seq(), max-folded through sync objects) has applied the
  // corresponding log prefix, then reconciles the acquirer's clock with
  // the latest gated apply time. Gates on exactly the happens-before
  // predecessors — never on unrelated in-flight traffic. No-op in
  // synchronous mode.
  void GateOnAppliedSeq(Context& ctx);
  // Block-scans working-vs-twin, serializes the RLE runs into the
  // flusher's wire buffer in the message layer, and — when `replay_now` —
  // replays them into the home node's master copy as MC remote writes.
  // The async publish path passes replay_now = false: the serialized image
  // is copied into the log record and the unit's cache agent performs the
  // replay (and books kDiffRunApplyBytes) when it applies the record. `pl`
  // is the page's state on ctx's unit; its lock is held by the caller.
  // Returns the modified words, which drive the DiffOut virtual-time
  // charge; the diff occupies the serial MC bus for their payload bytes.
  std::size_t FlushOutgoingDiffRuns(Context& ctx, PageLocal& pl, PageId page,
                                    bool flush_update, bool replay_now = true)
      CSM_REQUIRES(pl.lock);

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
