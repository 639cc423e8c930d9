#include "cashmere/protocol/cashmere_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/trace.hpp"
#include "cashmere/msg/diff_wire.hpp"
#include "cashmere/protocol/diff.hpp"
#include "cashmere/vm/perm_batch.hpp"


namespace cashmere {

namespace {

inline std::uint8_t Bit(int i) { return static_cast<std::uint8_t>(1u << i); }

// Stamps the per-(unit, page) transition sequence for trace events emitted
// under the page lock. Returns 0 (no sequence) while tracing is inactive so
// the counter never moves — and tracing can never perturb — untraced runs.
inline std::uint32_t NextTraceSeq(PageLocal& pl) {
  if (!TraceActive()) {
    return 0;
  }
  return pl.trace_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CashmereProtocol::CashmereProtocol(Deps deps) : deps_(deps), cfg_(*deps.cfg) {
  deps_.msg->set_handler(this);
}

// ---------------------------------------------------------------------------
// Topology helpers

bool CashmereProtocol::UnitAtMaster(UnitId unit, PageId page) const {
  const UnitId home = deps_.homes->HomeOfPage(page);
  if (unit == home) {
    return true;
  }
  if (cfg_.home_opt && !cfg_.two_level()) {
    // Home-node optimization: processors on the home processor's SMP node
    // share the master frame in hardware.
    return cfg_.NodeOfProc(cfg_.FirstProcOfUnit(unit)) ==
           cfg_.NodeOfProc(cfg_.FirstProcOfUnit(home));
  }
  return false;
}

std::byte* CashmereProtocol::MasterPtr(PageId page) const {
  const UnitId home = deps_.homes->HomeOfPage(page);
  return (*deps_.arenas)[static_cast<std::size_t>(home)]->PagePtr(page);
}

std::byte* CashmereProtocol::WorkingPtr(UnitId unit, PageId page) const {
  if (UnitAtMaster(unit, page)) {
    return MasterPtr(page);
  }
  return (*deps_.arenas)[static_cast<std::size_t>(unit)]->PagePtr(page);
}

void CashmereProtocol::ProtectLocal(Context& ctx, PageLocal& pl, UnitId unit, int local_index,
                                    PageId page, Perm perm) {
  if (pl.PermOfLocal(local_index) == perm) {
    return;
  }
  pl.SetPermOfLocal(local_index, perm);
  if (TraceActive()) {
    // Seq only when the transition lands in the emitting processor's own
    // unit: the checker attributes sequenced events to the emitter's unit,
    // and superpage relocation mutates the *old* home's page table.
    TraceEmit(EventKind::kPageProtect, page,
              unit == ctx.unit() ? NextTraceSeq(pl) : 0,
              static_cast<std::uint32_t>(perm),
              static_cast<std::uint64_t>(GlobalProc(unit, local_index)));
  }
  if (cfg_.fault_mode == FaultMode::kSigsegv) {
    // Queue the hardware change instead of issuing it: the episode commits
    // the coalesced batch before any point where a stale-loose mapping
    // could be observed (DESIGN.md §11). Software mode never queues — the
    // views stay fully open and the page table alone carries permissions.
    ctx.perm_batch().Add(GlobalProc(unit, local_index), page, perm);
  }
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.mprotect_us));
}

void CashmereProtocol::CommitPermBatch(Context& ctx) {
  if (cfg_.fault_mode != FaultMode::kSigsegv) {
    return;
  }
  ctx.perm_batch().Commit();
}

Perm CashmereProtocol::ResolveQueuedPerm(void* self, ProcId proc, PageId page,
                                         Perm /*queued*/) {
  auto* proto = static_cast<CashmereProtocol*>(self);
  const UnitId unit = proto->cfg_.UnitOfProc(proc);
  // Lock-free probe of the protocol's current truth (documented benign
  // race, page_table.hpp): the view commit lock's release/acquire ordering
  // ensures the last commit to touch a page observes its latest transition.
  return proto->Unit(unit).Page(page).PermOfLocalRelaxed(
      proc - proto->cfg_.FirstProcOfUnit(unit));
}

// ---------------------------------------------------------------------------
// Directory helpers

void CashmereProtocol::UpdateDirWord(Context& ctx, PageId page, DirWord word) {
  if (IsGlobalLock()) {
    SpinLockGuard guard(deps_.dir->EntryLock(page));
    // csm-lint: allow(raw-dir-write) -- UpdateDirWord IS the sanctioned
    // directory-write funnel; every fault/acquire-path caller routes here.
    deps_.dir->Write(page, ctx.unit(), word);
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.dir_update_locked_us));
  } else {
    // csm-lint: allow(raw-dir-write) -- UpdateDirWord IS the sanctioned
    // directory-write funnel; every fault/acquire-path caller routes here.
    deps_.dir->Write(page, ctx.unit(), word);
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.dir_update_us));
  }
  ctx.stats().Add(Counter::kDirectoryUpdates);
  if (TraceActive()) {
    UnitState& us = Unit(ctx.unit());
    TraceEmit(EventKind::kDirUpdate, page, NextTraceSeq(us.Page(page)), word.Pack(),
              us.Now());
  }
}

void CashmereProtocol::SetTwinTraced(PageLocal& pl, PageId page, bool valid) {
  if (pl.twin_valid == valid) {
    return;  // idempotent store: no transition, no generation bump, no event
  }
  pl.SetTwinValid(valid);
  TraceEmit(valid ? EventKind::kTwinCreate : EventKind::kTwinDiscard, page,
            NextTraceSeq(pl), 0, pl.twin_gen);
}

void CashmereProtocol::RefreshLoosestPerm(Context& ctx, PageLocal& pl, PageId page) {
  Perm loosest = pl.Loosest(cfg_.procs_per_unit());
  // Keep presence in the sharing set while the unit holds unflushed
  // modifications (no other unit may claim exclusive mode and later
  // overwrite our pending flush with a stale full-page copy), and while a
  // fetch is in flight (a concurrent releaser must count us as a sharer so
  // we receive its write notice — the paper updates the directory entry
  // *first* in the fault handler for exactly this reason). Published-but-
  // unapplied log records (async mode) are pending flushes in the same
  // sense: the modifications have left the dirty lists but are not in the
  // master copy yet, so exclusive claims must stay blocked until the
  // cache agent applies them.
  if (loosest == Perm::kInvalid &&
      (pl.dirty_mask != 0 || pl.twin_valid ||
       pl.pending_flush.load(std::memory_order_acquire) != 0 ||
       pl.fetch_in_progress.load(std::memory_order_acquire))) {
    loosest = Perm::kRead;
  }
  DirWord word;
  word.perm = loosest;
  word.exclusive = pl.exclusive;
  word.excl_proc = pl.exclusive ? pl.excl_proc : 0;
  const DirWord current = deps_.dir->Read(page, ctx.unit());
  if (current.Pack() != word.Pack()) {
    UpdateDirWord(ctx, page, word);
  }
}

// ---------------------------------------------------------------------------
// Polling and request handling

void CashmereProtocol::Poll(Context& ctx) {
  ctx.stats().Add(Counter::kPolls);
  ctx.clock().Charge(ctx.stats(), TimeCategory::kPolling,
                     static_cast<std::uint64_t>(cfg_.costs.poll_ns));
  if (deps_.msg->HasPending(ctx.unit())) {
    ProtocolScope scope(ctx);
    deps_.msg->Poll(ctx.unit());
  }
}

void CashmereProtocol::HandleRequest(const Request& request) {
  Context& ctx = *Context::Current();
  ctx.stats().Add(Counter::kMessagesHandled);
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.request_handle_us));
  if (cfg_.delivery == DeliveryMode::kInterrupt) {
    // In interrupt mode the request would have interrupted us.
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.inter_node_interrupt_us));
  }
  const PageId page = request.page;
  switch (request.kind) {
    case Request::Kind::kPageFetch: {
      // We are (a processor of) the page's home unit: write the master copy
      // into the requester's page read buffer.
      ReplySlot& slot = deps_.msg->SlotOf(request.from_proc);
      deps_.hub->Issue(
          McOp::Stream(slot.data, MasterPtr(page), kWordsPerPage, Traffic::kPageData));
      deps_.msg->Complete(request.from_proc, request.seq, kReplyHasPage, ctx.clock().now());
      return;
    }
    case Request::Kind::kBreakExclusive: {
      UnitState& us = Unit(ctx.unit());
      PageLocal& pl = us.Page(page);
      SpinLockGuard guard(pl.lock);
      if (!pl.exclusive) {
        // Raced with another break or a voluntary exit: master is current.
        deps_.msg->Complete(request.from_proc, request.seq, kReplyFetchHome,
                            ctx.clock().now());
        return;
      }
      pl.exclusive = false;
      ctx.stats().Add(Counter::kExclTransitions);
      if (TraceActive()) {
        TraceEmit(EventKind::kExclBreak, page, NextTraceSeq(pl),
                  static_cast<std::uint32_t>(pl.excl_proc), 0);
      }
      std::byte* working = WorkingPtr(ctx.unit(), page);
      // The exclusive holder processor is downgraded so its future writes
      // fault; other local writers keep their mappings but are noted in
      // their no-longer-exclusive lists so they flush (and send write
      // notices) at their next release. At the master copy no twin is
      // needed — writes land in the master directly — but the NLE entries
      // still drive write-notice generation.
      //
      // Order matters, because the local writers keep running while this
      // handler works: the holder's downgrade must be in hardware, and the
      // other writers' twin taken, before the flush reads the frame. A
      // holder write landing after the flush's copy, or any write landing
      // between that copy and the twin's, would reach neither the master
      // copy nor a later diff.
      const int holder_li = pl.excl_proc - cfg_.FirstProcOfUnit(ctx.unit());
      if (holder_li >= 0 && holder_li < cfg_.procs_per_unit() &&
          pl.PermOfLocal(holder_li) == Perm::kReadWrite) {
        ProtectLocal(ctx, pl, ctx.unit(), holder_li, page, Perm::kRead);
      }
      CommitPermBatch(ctx);
      bool other_writers = false;
      for (int li = 0; li < cfg_.procs_per_unit(); ++li) {
        if (li != holder_li && pl.PermOfLocal(li) == Perm::kReadWrite) {
          other_writers = true;
        }
      }
      if (other_writers) {
        if (!pl.twin_valid && !UnitAtMaster(ctx.unit(), page)) {
          CopyPage(TwinPtr(ctx.unit(), page), working);
          SetTwinTraced(pl, page, true);
          ctx.stats().Add(Counter::kTwinCreations);
          if (!IsWriteDouble()) {
            ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                               CostModel::UsToNs(cfg_.costs.twin_us));
          }
        }
        for (int li = 0; li < cfg_.procs_per_unit(); ++li) {
          if (li != holder_li && pl.PermOfLocal(li) == Perm::kReadWrite) {
            us.NleList(li).Add(page);
            pl.dirty_mask |= Bit(li);
          }
        }
      }
      if (!UnitAtMaster(ctx.unit(), page)) {
        // Flush the entire page to the home node (Section 2.4.1).
        deps_.hub->Issue(
            McOp::Stream(MasterPtr(page), working, kWordsPerPage, Traffic::kPageData));
        pl.flush_ts.store(us.Tick(), std::memory_order_release);
        ctx.stats().Add(Counter::kPageFlushes);
        ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                           cfg_.costs.PageTransferNs(false, cfg_.two_level()));
      }
      RefreshLoosestPerm(ctx, pl, page);
      // Piggyback the latest copy of the page to the requester.
      ReplySlot& slot = deps_.msg->SlotOf(request.from_proc);
      deps_.hub->Issue(
          McOp::Stream(slot.data, working, kWordsPerPage, Traffic::kPageData));
      deps_.msg->Complete(request.from_proc, request.seq, kReplyHasPage, ctx.clock().now());
      return;
    }
  }
}

std::uint64_t CashmereProtocol::AwaitReply(Context& ctx, std::uint64_t seq) {
  ctx.SetDebugState(2, seq);
  ReplySlot& slot = deps_.msg->SlotOf(ctx.proc());
  ServeWhile(ctx, [&] { return slot.done_seq.load(std::memory_order_acquire) < seq; });
  ctx.SetDebugState(1, 0xffffffff);  // back in the fault path
  return slot.responder_vt;
}

// ---------------------------------------------------------------------------
// Fault handling (Section 2.4.1)

bool CashmereProtocol::NeedFetch(const PageLocal& pl, UnitId unit, PageId page) const {
  if (pl.exclusive) {
    return false;  // we are the exclusive holder: the local copy is the copy
  }
  // Every fault consults the directory (Section 2.4.1): if another unit
  // holds the page exclusively, its modifications are invisible (no write
  // notices are generated in exclusive mode), so exclusivity must be broken
  // before the access proceeds — even when a timestamp-valid local copy or
  // the master frame is at hand. The holder-at-master case is the one
  // exception for master-sharing units: they read the same frame.
  const UnitId holder = deps_.dir->ExclusiveHolder(page);
  if (holder >= 0 && holder != unit) {
    if (!(UnitAtMaster(unit, page) && UnitAtMaster(holder, page))) {
      return true;
    }
  }
  if (UnitAtMaster(unit, page)) {
    return false;  // we work directly on the (current) master copy
  }
  if (!pl.ever_valid) {
    return true;
  }
  // "Page fetch requests can safely be eliminated if the page's last update
  // timestamp is greater than the page's last write notice timestamp."
  return pl.update_ts.load(std::memory_order_acquire) <=
         pl.wn_ts.load(std::memory_order_acquire);
}

void CashmereProtocol::WaitFetchDone(Context& ctx, PageLocal& pl) {
  ctx.SetDebugState(8, reinterpret_cast<std::uintptr_t>(&pl) & 0xffffffffu);
  ServeWhile(ctx, [&] { return pl.fetch_in_progress.load(std::memory_order_acquire); });
}

void CashmereProtocol::ApplyIncoming(Context& ctx, PageLocal& pl, PageId page,
                                     const std::byte* image, bool piggyback,
                                     std::uint64_t fetch_start_ts,
                                     std::uint32_t diff_flushes_at_request) {
  if (pl.diff_flushes != diff_flushes_at_request) {
    // A local flush sent a diff after the request went out, so the home may
    // have copied the master before that diff landed. The image would
    // then hold pre-flush values for words this unit wrote: the two-way
    // merge below would take them for remote modifications and revert the
    // local ones, and a plain copy would overwrite them. Drop the image;
    // the copy stays stale (update_ts untouched) and the fault fetches again.
    return;
  }
  std::byte* working = WorkingPtr(ctx.unit(), page);
  if (pl.twin_valid) {
    // Two-way diffing (Section 2.5): merge only the remote modifications so
    // concurrent local writers are not disturbed — this replaces TLB
    // shootdown. (2LS never reaches here with a twin: it shoots down and
    // flushes before fetching.) The merge writes working and twin
    // identically, so the local modifications (working-vs-twin) are
    // untouched.
    DiffScanStats scan;
    const std::size_t words =
        ApplyIncomingDiff(image, TwinPtr(ctx.unit(), page), working, &scan);
    ctx.stats().Add(Counter::kIncomingDiffs);
    ctx.stats().Add(Counter::kDiffBlocksScanned, scan.blocks_scanned);
    ctx.stats().Add(Counter::kDiffRunsEmitted, scan.runs);
    if (TraceActive()) {
      TraceEmit(EventKind::kDiffApplyIncoming, page, NextTraceSeq(pl),
                static_cast<std::uint32_t>(words), piggyback ? 1 : 0);
    }
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol, cfg_.costs.DiffInNs(words));
  } else {
    CopyPage(working, image);
    if (TraceActive()) {
      TraceEmit(EventKind::kPageCopy, page, NextTraceSeq(pl), 0, piggyback ? 1 : 0);
    }
  }
  pl.update_ts.store(fetch_start_ts, std::memory_order_release);
  pl.ever_valid = true;
}

void CashmereProtocol::BreakRemoteExclusive(Context& ctx, PageLocal& pl, PageId page,
                                            UnitId holder,
                                            std::uint32_t diff_flushes_at_request) {
  // The update timestamp must not postdate any data the reply can contain:
  // stamp it at request time, so a write notice distributed while the
  // request is in flight still forces a refetch (update_ts <= wn_ts).
  const std::uint64_t fetch_start_ts = Unit(ctx.unit()).Tick();
  Request request;
  request.kind = Request::Kind::kBreakExclusive;
  request.page = page;
  request.send_vt = ctx.clock().now();
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.mc_write_latency_us));
  const std::uint64_t seq = deps_.msg->Send(ctx.proc(), holder, request);
  const VirtTime responder_vt = AwaitReply(ctx, seq);
  ReplySlot& slot = deps_.msg->SlotOf(ctx.proc());
  const VirtTime service = std::max(request.send_vt, responder_vt);
  // The holder's break-time flush and the reply each cross the serial MC
  // bus: latency bound under no contention, queuing bound under load.
  VirtTime arrival = std::max(service + cfg_.costs.PageTransferNs(false, cfg_.two_level()),
                              deps_.hub->ReserveBus(service, 2 * kPageBytes));
  if (cfg_.delivery == DeliveryMode::kInterrupt) {
    arrival += CostModel::UsToNs(cfg_.costs.inter_node_interrupt_us);
  }
  ctx.clock().AdvanceTo(ctx.stats(), arrival);
  if (TraceActive()) {
    TraceEmit(EventKind::kReqDone, page, 0,
              static_cast<std::uint32_t>(Request::Kind::kBreakExclusive),
              (static_cast<std::uint64_t>(ctx.proc()) << 32) | seq);
  }
  if ((slot.flags & kReplyHasPage) != 0) {
    ctx.stats().Add(Counter::kPageTransfers);
    if (!UnitAtMaster(ctx.unit(), page)) {
      // Apply under the page lock: a concurrent local flush diffing
      // working-vs-twin must not interleave with the incoming merge's
      // working-then-twin writes, or it can push a stale word to the home.
      SpinLockGuard guard(pl.lock);
      ApplyIncoming(ctx, pl, page, slot.data, /*piggyback=*/true, fetch_start_ts,
                    diff_flushes_at_request);
    }
    // At the master copy the holder's break-time flush already updated our
    // frame; the piggybacked image is redundant.
  }
}

void CashmereProtocol::FetchPage(Context& ctx, PageLocal& pl, PageId page) {
  // Called with the page lock NOT held; fetch_in_progress is set so
  // concurrent local faults coalesce onto this fetch.
  const UnitId home = deps_.homes->HomeOfPage(page);

  // Every local diff flush before this point is in the master copy before
  // the request goes out (synchronously under the page lock, or through the
  // wait below); ApplyIncoming drops the image if one follows it.
  std::uint32_t diff_flushes_at_request;
  {
    SpinLockGuard guard(pl.lock);
    // 2LS: before fetching, shoot down concurrent local writers and flush,
    // so the incoming image can simply overwrite the frame (Section 2.6).
    if (IsShootdown() && pl.twin_valid) {
      ShootdownLocalWriters(ctx, pl, page);
    }
    diff_flushes_at_request = pl.diff_flushes;
  }

  // Async mode: this unit may have published diffs for the page that its
  // cache agent has not applied to the master copy yet. Reading the master
  // before our own writes land would lose them — same-unit visibility is
  // program order, not covered by the write-notice/gate machinery — so
  // wait for the agent first. Safe to spin here: the agent takes no page
  // locks and this path holds none.
  if (deps_.coh != nullptr) {
    ServeWhile(ctx, [&] { return pl.pending_flush.load(std::memory_order_acquire) != 0; });
  }

  // Re-read the holder: NeedFetch's lookup was taken before the page lock
  // was dropped, and a claim that raced with our fault since then would
  // leave the holder's modifications invisible (no write notices in
  // exclusive mode).
  const UnitId holder = deps_.dir->ExclusiveHolder(page);
  if (holder >= 0 && holder != ctx.unit()) {
    BreakRemoteExclusive(ctx, pl, page, holder, diff_flushes_at_request);
    if (UnitAtMaster(ctx.unit(), page)) {
      return;  // the holder's flush refreshed our (master) frame
    }
    {
      // ever_valid is lock-guarded (home relocation can write it from
      // another unit's processor); take the lock for the probe. The
      // timestamps are atomics, but reading them in the same critical
      // section keeps the ever_valid/update_ts pair coherent.
      SpinLockGuard guard(pl.lock);
      if (pl.ever_valid &&
          pl.update_ts.load(std::memory_order_acquire) >
              pl.wn_ts.load(std::memory_order_acquire)) {
        return;  // the piggybacked copy sufficed
      }
    }
  }
  if (UnitAtMaster(ctx.unit(), page)) {
    return;  // exclusivity already cleared; the master frame is current
  }

  // As above: the image cannot contain data newer than the request time.
  const std::uint64_t fetch_start_ts = Unit(ctx.unit()).Tick();
  Request request;
  request.kind = Request::Kind::kPageFetch;
  request.page = page;
  request.send_vt = ctx.clock().now();
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.mc_write_latency_us));
  const std::uint64_t seq = deps_.msg->Send(ctx.proc(), home, request);
  const VirtTime responder_vt = AwaitReply(ctx, seq);
  ReplySlot& slot = deps_.msg->SlotOf(ctx.proc());
  const bool home_is_local_node =
      cfg_.NodeOfProc(cfg_.FirstProcOfUnit(home)) == ctx.node();
  const VirtTime service = std::max(request.send_vt, responder_vt);
  // Latency bound under no contention; serial-bus occupancy under load
  // ("MC is a bus", Section 3.3.3 — this is what penalizes protocols that
  // move more data).
  VirtTime arrival =
      std::max(service + cfg_.costs.PageTransferNs(home_is_local_node, cfg_.two_level()),
               deps_.hub->ReserveBus(service, kPageBytes));
  if (cfg_.delivery == DeliveryMode::kInterrupt) {
    arrival += CostModel::UsToNs(cfg_.costs.inter_node_interrupt_us);
  }
  ctx.clock().AdvanceTo(ctx.stats(), arrival);
  ctx.stats().Add(Counter::kPageTransfers);
  if (TraceActive()) {
    TraceEmit(EventKind::kReqDone, page, 0,
              static_cast<std::uint32_t>(Request::Kind::kPageFetch),
              (static_cast<std::uint64_t>(ctx.proc()) << 32) | seq);
  }
  {
    // Serialize the merge against concurrent local flushes (see above).
    SpinLockGuard guard(pl.lock);
    ApplyIncoming(ctx, pl, page, slot.data, /*piggyback=*/false, fetch_start_ts,
                  diff_flushes_at_request);
  }
}

void CashmereProtocol::EnsureTwin(Context& ctx, PageLocal& pl, PageId page) {
  if (UnitAtMaster(ctx.unit(), page) || pl.twin_valid) {
    return;
  }
  CopyPage(TwinPtr(ctx.unit(), page), WorkingPtr(ctx.unit(), page));
  SetTwinTraced(pl, page, true);
  ctx.stats().Add(Counter::kTwinCreations);
  if (!IsWriteDouble()) {
    // Cashmere-1L has no twins on the real system (write-through); the twin
    // here is only the emulation's mechanism for finding doubled words, so
    // its cost is not charged.
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.twin_us));
  }
}

void CashmereProtocol::ShootdownLocalWriters(Context& ctx, PageLocal& pl, PageId page) {
  // Called with the page lock held (2LS only): revoke every local write
  // mapping, flush outstanding changes to the home node, discard the twin.
  UnitState& us = Unit(ctx.unit());
  int victims = 0;
  for (int li = 0; li < cfg_.procs_per_unit(); ++li) {
    if (pl.PermOfLocal(li) == Perm::kReadWrite) {
      if (GlobalProc(ctx.unit(), li) != ctx.proc()) {
        ++victims;
      }
      ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kRead);
    }
  }
  if (victims > 0) {
    ctx.stats().Add(Counter::kShootdowns, static_cast<std::uint64_t>(victims));
    const double per_victim = cfg_.delivery == DeliveryMode::kInterrupt
                                  ? cfg_.costs.shootdown_interrupt_us
                                  : cfg_.costs.shootdown_poll_us;
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(per_victim * victims));
  }
  // The victims' hardware downgrades must land before the diff scan below:
  // a writer left RW past this point could dirty words the scan already
  // visited, losing the write.
  CommitPermBatch(ctx);
  if (pl.twin_valid && !UnitAtMaster(ctx.unit(), page)) {
    // The twin is discarded below, so a plain diff suffices (no flush-update).
    CoherenceRecord& rec = ctx.release_record();
    EncodeRelease(ctx, pl, page, /*flush_update=*/false, rec);
    pl.flush_ts.store(us.Tick(), std::memory_order_release);
    Propagate(ctx.unit(), rec, ctx.clock(), ctx.stats());
  }
  SetTwinTraced(pl, page, false);
  pl.dirty_mask = 0;
}

void CashmereProtocol::EnterExclusiveOrShare(Context& ctx, PageLocal& pl, PageId page) {
  // Called with the page lock held, on a write fault, after the local copy
  // is valid. Decides between exclusive mode and the shared write path.
  UnitState& us = Unit(ctx.unit());
  const int li = ctx.local_index();
  if (pl.exclusive) {
    return;  // unit already exclusive; the new writer just joins
  }
  if (!deps_.dir->AnyOtherSharer(page, ctx.unit())) {
    // Claim exclusive mode through the ordered directory broadcast: if two
    // units claim concurrently, the one ordered second sees the first and
    // withdraws (MC's total write ordering resolves the race).
    DirWord claim;
    claim.perm = Perm::kReadWrite;
    claim.exclusive = true;
    claim.excl_proc = ctx.proc();
    std::uint32_t snapshot[kMaxProcs];
    // csm-lint: allow(raw-dir-write) -- the exclusive-mode claim must be an
    // ordered write+snapshot on the fault path itself; it cannot ride the
    // coherence log (the race is resolved by MC write ordering, not HB).
    deps_.dir->WriteAndSnapshot(page, ctx.unit(), claim, snapshot);
    ctx.stats().Add(Counter::kDirectoryUpdates);
    if (TraceActive()) {
      TraceEmit(EventKind::kDirUpdate, page, NextTraceSeq(pl), claim.Pack(), us.Now());
    }
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.dir_update_us));
    bool conflict = false;
    for (int u = 0; u < cfg_.units(); ++u) {
      if (u == ctx.unit()) {
        continue;
      }
      const DirWord w = DirWord::Unpack(snapshot[u]);
      if (w.perm != Perm::kInvalid || w.exclusive) {
        conflict = true;
        break;
      }
    }
    // Checked after the snapshot, so it covers every notice posted by a
    // unit the snapshot shows gone: a releaser posts before it leaves. A
    // notice that has not reached this copy means it may miss words
    // another unit flushed, and an exclusive holder later ships and
    // flushes its whole copy, stale words included. Take the shared path:
    // the diff carries only this unit's words, and the notice invalidates
    // the copy at the next acquire.
    if (!conflict && deps_.notices->MayHoldGlobalNotice(ctx.unit(), page)) {
      conflict = true;
    }
    if (!conflict) {
      pl.exclusive = true;
      pl.excl_proc = ctx.proc();
      if (TraceActive()) {
        TraceEmit(EventKind::kExclEnter, page, NextTraceSeq(pl),
                  static_cast<std::uint32_t>(ctx.proc()), 0);
      }
      ctx.stats().Add(Counter::kExclTransitions);
      // Exclusive pages have no twin, never enter dirty lists, and generate
      // no write notices or flushes (Section 2.4.1).
      return;
    }
    // Withdraw the claim and fall through to the shared path.
    DirWord shared = claim;
    shared.exclusive = false;
    UpdateDirWord(ctx, page, shared);
  }
  EnsureTwin(ctx, pl, page);
  if (us.DirtyList(li).Add(page)) {
    pl.dirty_mask |= Bit(li);
  }
}

void CashmereProtocol::OnFault(Context& ctx, PageId page, bool is_write) {
  ProtocolScope scope(ctx);
  ctx.SetDebugState(1, page);
  TraceEmit(EventKind::kFaultBegin, page, 0, is_write ? 1u : 0u, 0);
  ctx.stats().Add(is_write ? Counter::kWriteFaults : Counter::kReadFaults);
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.page_fault_us));
  MaybeFirstTouch(ctx, page);

  UnitState& us = Unit(ctx.unit());
  PageLocal& pl = us.Page(page);
  const int li = ctx.local_index();

  while (true) {
    pl.lock.Lock();
    if (pl.fetch_in_progress.load(std::memory_order_acquire)) {
      pl.lock.Unlock();
      WaitFetchDone(ctx, pl);  // intra-node fetch coalescing
      continue;
    }
    if (NeedFetch(pl, ctx.unit(), page)) {
      pl.fetch_in_progress.store(true, std::memory_order_release);
      // Join the sharing set *before* fetching (Section 2.4.1 does the
      // directory update first): a release overlapping this fetch must
      // either be visible in the fetched image or send us a write notice.
      RefreshLoosestPerm(ctx, pl, page);
      pl.lock.Unlock();
      FetchPage(ctx, pl, page);
      ctx.SetDebugState(9, page);
      pl.lock.Lock();
      pl.fetch_in_progress.store(false, std::memory_order_release);
      // Re-check before installing a mapping: write notices distributed
      // while the fetch was in flight (update_ts <= wn_ts) mean the image
      // may predate those flushes, and no notice targets us yet — fetch
      // again rather than map a possibly stale copy.
      pl.lock.Unlock();
      continue;
    }
    break;
  }
  // Page lock held; local copy valid (or we are at the master copy).
  if (is_write) {
    EnterExclusiveOrShare(ctx, pl, page);
    ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kReadWrite);
  } else {
    if (pl.PermOfLocal(li) == Perm::kInvalid) {
      ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kRead);
    }
  }
  RefreshLoosestPerm(ctx, pl, page);
  pl.lock.Unlock();
  // Mandatory commit: the faulting instruction retries as soon as the
  // handler returns, so the upgrade must be in hardware here. Batch size is
  // normally 1 (plus anything a nested shootdown or break queued); the win
  // on this path is the shadow-table elision, not coalescing.
  CommitPermBatch(ctx);
  TraceEmit(EventKind::kFaultEnd, page, 0, is_write ? 1u : 0u, 0);
  ctx.SetDebugState(0, 0);
}

// ---------------------------------------------------------------------------
// Releases (Section 2.4.3)

std::uint32_t CashmereProtocol::WriteNoticeTargets(UnitId unit, PageId page) {
  UnitId sharers[kMaxProcs];
  const int n = deps_.dir->Sharers(page, unit, sharers);
  std::uint32_t mask = 0;
  for (int i = 0; i < n; ++i) {
    const UnitId u = sharers[i];
    if (UnitAtMaster(u, page)) {
      continue;  // home (and master-sharing) units see flushes directly
    }
    mask |= 1u << u;
  }
  return mask;
}

void CashmereProtocol::EncodeRelease(Context& ctx, PageLocal& pl, PageId page,
                                     bool flush_update, CoherenceRecord& rec) {
  rec.page = page;
  rec.has_diff = !UnitAtMaster(ctx.unit(), page) && pl.twin_valid;
  rec.words = 0;
  if (rec.has_diff) {
    DiffBuffer& buf = ctx.diff_scratch();
    DiffScanStats scan;
    EncodeOutgoingDiff(WorkingPtr(ctx.unit(), page), TwinPtr(ctx.unit(), page), flush_update,
                       buf, &scan);
    // Serialize headers + payload into the record's wire image; Propagate
    // replays the runs into the home node's master copy. Traffic is
    // byte-identical to writing each run straight out of the DiffBuffer.
    SerializeDiffRuns(page, buf, rec.slot);
    rec.words = static_cast<std::uint32_t>(buf.words());
    ++pl.diff_flushes;
    ctx.stats().Add(Counter::kPageFlushes);
    if (flush_update) {
      ctx.stats().Add(Counter::kFlushUpdates);
    }
    ctx.stats().Add(Counter::kDiffBlocksScanned, scan.blocks_scanned);
    ctx.stats().Add(Counter::kDiffRunsEmitted, scan.runs);
    ctx.stats().Add(Counter::kDiffRunBytes, scan.run_bytes);
    if (TraceActive()) {
      TraceEmit(EventKind::kDiffEncode, page, NextTraceSeq(pl),
                static_cast<std::uint32_t>(scan.runs), buf.words());
    }
  }
  rec.home_local =
      cfg_.NodeOfProc(cfg_.FirstProcOfUnit(deps_.homes->HomeOfPage(page))) == ctx.node();
}

void CashmereProtocol::Propagate(UnitId unit, const CoherenceRecord& rec, VirtualClock& clock,
                                 Stats& stats) {
  const PageId page = rec.page;
  if (rec.has_diff) {
    const std::size_t applied = ReplayDiffWire(rec.slot, *deps_.hub, MasterPtr(page));
    stats.Add(Counter::kDiffRunApplyBytes, applied);
    // The flusher is write-buffered and does not stall, but the diff
    // occupies the serial MC: later transfers queue behind it.
    deps_.hub->ReserveBus(clock.now(), std::size_t{rec.words} * kWordBytes);
    if (IsWriteDouble()) {
      // Cashmere-1L: modifications were (conceptually) written through as
      // they happened; charge the per-word doubling cost instead of the
      // diff cost.
      const double per_word = rec.home_local ? cfg_.costs.write_double_word_home_us
                                             : cfg_.costs.write_double_word_us;
      clock.Charge(stats, TimeCategory::kWriteDoubling,
                   CostModel::UsToNs(per_word * static_cast<double>(rec.words)));
    } else {
      clock.Charge(stats, TimeCategory::kProtocol,
                   cfg_.costs.DiffOutNs(rec.words, rec.home_local));
    }
  }
  // Both policies read the sharing set only now that the diff is in the
  // master copy: a unit joining it later fetches the new data, one that
  // joined earlier gets a notice. A set read before the replay (say, at
  // publish) would miss a unit that joins in between and whose fetch the
  // home serves before the replay lands: its copy would lack this diff
  // and no notice would ever tell it so.
  const std::uint32_t targets = WriteNoticeTargets(unit, page);
  int sent = 0;
  for (int u = 0; u < cfg_.units(); ++u) {
    if ((targets & (1u << u)) == 0) {
      continue;
    }
    if (IsGlobalLock()) {
      clock.Charge(stats, TimeCategory::kProtocol, CostModel::UsToNs(cfg_.costs.dir_lock_us));
    }
    deps_.notices->PostGlobal(static_cast<UnitId>(u), unit, page);
    if (TraceActive()) {
      TraceEmit(EventKind::kWnPost, page, 0, static_cast<std::uint32_t>(u), 0);
    }
    ++sent;
  }
  if (sent > 0) {
    stats.Add(Counter::kWriteNotices, static_cast<std::uint64_t>(sent));
    clock.Charge(stats, TimeCategory::kProtocol,
                 CostModel::UsToNs(cfg_.costs.mc_write_latency_us));
  }
}

void CashmereProtocol::PublishCoherenceRecord(Context& ctx, PageLocal& pl,
                                              CoherenceRecord& rec) {
  if (!rec.has_diff && WriteNoticeTargets(ctx.unit(), rec.page) == 0) {
    // Nothing to propagate: no record, no agent work. A unit joining the
    // sharing set from here on fetches a master copy that already holds
    // these writes (no diff: they were made at the master).
    return;
  }
  // The releaser pays only the local publish cost; the diff replay, the MC
  // bus occupancy, and the write-notice latency all move to the cache
  // agent (AgentApply), off the release's critical path.
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.log_publish_us));
  bool stalled = false;
  const std::uint64_t seq = deps_.coh->LogOf(ctx.unit()).Publish(
      [&](CoherenceRecord& out) {
        out.page = rec.page;
        out.publish_vt = ctx.clock().now();
        out.words = rec.words;
        out.has_diff = rec.has_diff;
        out.home_local = rec.home_local;
        if (rec.has_diff) {
          out.slot.page = rec.slot.page;
          out.slot.nruns = rec.slot.nruns;
          out.slot.nwords = rec.slot.nwords;
          // Copy only the used wire prefix (headers + payload): the log
          // entry must carry its own image because the releaser's record
          // is reused by its next flush.
          // csm-lint: allow(raw-page-copy) -- wire-format bytes between two
          // protocol-owned scratch buffers, not a page frame copy
          std::memcpy(out.slot.wire, rec.slot.wire,
                      rec.slot.nruns * kDiffRunHeaderBytes + rec.slot.nwords * kWordBytes);
        }
      },
      &stalled);
  // Order matters: the pending-flush count must cover the record before
  // the publisher's release returns (FetchPage spins on it), and the
  // sequence lands in the publisher's own seen_seq so sync objects can
  // propagate the dependency to later acquirers.
  pl.pending_flush.fetch_add(1, std::memory_order_acq_rel);
  pl.last_publish_seq = seq;
  ctx.seen_seq()[ctx.unit()] = seq;
  ctx.stats().Add(Counter::kCohLogPublishes);
  if (stalled) {
    ctx.stats().Add(Counter::kCohLogPublishStalls);
  }
  if (TraceActive()) {
    TraceEmit(EventKind::kCohPublish, rec.page, 0, static_cast<std::uint32_t>(ctx.unit()),
              seq);
  }
}

void CashmereProtocol::FlushPage(Context& ctx, PageLocal& pl, PageId page,
                                 std::uint64_t release_start, bool barrier_arrival) {
  UnitState& us = Unit(ctx.unit());
  const int li = ctx.local_index();
  SpinLockGuard guard(pl.lock);

  if (pl.exclusive) {
    // The page re-entered exclusive mode after the NLE notice; exclusive
    // pages incur no flush.
    pl.dirty_mask &= static_cast<std::uint8_t>(~Bit(li));
    return;
  }

  // Skip rule: if a flush of this page began after this release began, that
  // flush already covered our modifications (a diff covers the whole page).
  if (pl.flush_ts.load(std::memory_order_acquire) > release_start) {
    // In async mode that flush may still be in this unit's log: this
    // release must not be observed before the covering record applies.
    std::uint64_t& own_seq = ctx.seen_seq()[ctx.unit()];
    own_seq = std::max(own_seq, pl.last_publish_seq);
    pl.dirty_mask &= static_cast<std::uint8_t>(~Bit(li));
    if (pl.PermOfLocal(li) == Perm::kReadWrite) {
      ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kRead);
    }
    RefreshLoosestPerm(ctx, pl, page);
    return;
  }

  if (barrier_arrival) {
    // "Each processor, as it arrives, performs page flushes for those pages
    // for which it is the last arriving local writer" — if another local
    // writer has not arrived yet, leave the flush to them.
    const std::uint32_t arrived = us.barrier_arrived_mask().load(std::memory_order_acquire);
    for (int other = 0; other < cfg_.procs_per_unit(); ++other) {
      if (other == li) {
        continue;
      }
      if ((pl.dirty_mask & Bit(other)) != 0 && (arrived & (1u << other)) == 0) {
        pl.dirty_mask &= static_cast<std::uint8_t>(~Bit(li));
        if (pl.PermOfLocal(li) == Perm::kReadWrite) {
          ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kRead);
        }
        return;
      }
    }
  }

  pl.flush_ts.store(us.Tick(), std::memory_order_release);

  if (IsShootdown() && pl.twin_valid && !UnitAtMaster(ctx.unit(), page)) {
    ShootdownLocalWriters(ctx, pl, page);  // flushes, notifies, discards the twin
  } else {
    // Flush-update: write local modifications to both the home node and the
    // twin, so overlapping releases skip redundant work (Section 2.5).
    CoherenceRecord& rec = ctx.release_record();
    EncodeRelease(ctx, pl, page, /*flush_update=*/true, rec);
    if (deps_.coh != nullptr) {
      PublishCoherenceRecord(ctx, pl, rec);  // the cache agent propagates
    } else {
      Propagate(ctx.unit(), rec, ctx.clock(), ctx.stats());
    }
  }
  pl.dirty_mask = 0;
  if (pl.PermOfLocal(li) == Perm::kReadWrite) {
    ProtectLocal(ctx, pl, ctx.unit(), li, page, Perm::kRead);
  }
  if (!IsShootdown() && pl.twin_valid && pl.WriterCount(cfg_.procs_per_unit()) == 0) {
    SetTwinTraced(pl, page, false);  // no writers left: the twin is no longer needed
  }
  RefreshLoosestPerm(ctx, pl, page);
}

void CashmereProtocol::ReleaseSync(Context& ctx, bool barrier_arrival) {
  ProtocolScope scope(ctx);
  UnitState& us = Unit(ctx.unit());
  const int li = ctx.local_index();
  const std::uint64_t release_start = us.Tick();
  us.last_release_time().store(release_start, std::memory_order_release);
  const VirtTime path_start = ctx.clock().now();

  // The modified-page set is derived exactly once per release, into the
  // reusable per-processor scratch (capacity reserved by the Runtime, so
  // the hot path never allocates). The same hoisted set feeds both
  // propagation modes — the synchronous diff scan and the asynchronous log
  // publish — page by page through FlushPage; neither re-walks the lists.
  // Cross-list duplicates (a page on both the dirty and the NLE list) are
  // absorbed by FlushPage's flush-timestamp skip rule, in both modes.
  std::vector<PageId>& pages = ctx.release_scratch();
  pages.clear();
  us.DirtyList(li).TakeAll(pages);
  us.NleList(li).TakeAll(pages);
  for (const PageId page : pages) {
    FlushPage(ctx, us.Page(page), page, release_start, barrier_arrival);
  }
  // One commit for the whole release: contiguous RW->R downgrades queued by
  // the FlushPage loop collapse into ranged mprotects. It must land before
  // the release completes — once a remote acquirer observes this release,
  // our writes here must fault again.
  CommitPermBatch(ctx);
  // Critical-path accounting for the sync-vs-async ablation
  // (bench_async_release): virtual nanoseconds from release entry to the
  // point where user execution may resume. In async mode the deferred
  // replay/notice costs land on the cache agent's clock instead and this
  // counter records only the publish cost.
  ctx.stats().Add(Counter::kReleasePathNs,
                  static_cast<std::uint64_t>(ctx.clock().now() - path_start));
}

// ---------------------------------------------------------------------------
// Async coherence pipeline: agent apply + acquire gate (DESIGN.md §12)

void CashmereProtocol::AgentApply(UnitId unit, const CoherenceRecord& rec,
                                  VirtualClock& clock, Stats& stats) {
  Propagate(unit, rec, clock, stats);
  // Decrement only after the master replay and the notice posts: a local
  // fetch spinning on pending_flush must observe the applied diff, and a
  // gated acquirer that observes the advanced applied_seq (PopApplied,
  // called by the agent loop after this returns) must find the notices
  // already posted.
  Unit(unit).Page(rec.page).pending_flush.fetch_sub(1, std::memory_order_acq_rel);
  stats.Add(Counter::kCohLogApplies);
  if (TraceActive()) {
    TraceEmit(EventKind::kCohApply, rec.page, 0, static_cast<std::uint32_t>(unit), rec.seq);
  }
}

void CashmereProtocol::GateOnAppliedSeq(Context& ctx) {
  if (deps_.coh == nullptr) {
    return;
  }
  const std::uint64_t* seen = ctx.seen_seq();
  VirtTime gate_vt = 0;
  for (int u = 0; u < cfg_.units(); ++u) {
    const std::uint64_t want = seen[u];
    if (u == ctx.unit() || want == 0) {
      // Own-unit visibility is direct (local processors share the unit's
      // working frames; fetches spin on pending_flush), so the gate only
      // covers units whose releases this acquire happens-after.
      continue;
    }
    CoherenceLog& log = deps_.coh->LogOf(static_cast<UnitId>(u));
    if (log.applied_seq() < want) {
      ctx.stats().Add(Counter::kCohGateWaits);
      if (TraceActive()) {
        TraceEmit(EventKind::kCohGate, kNoTracePage, 0,
                  static_cast<std::uint32_t>(u), want);
      }
      // The agent itself never blocks on us (it takes no locks and sends
      // no requests), but remote releasers feeding its log may — keep
      // servicing our unit's incoming requests while we wait.
      ServeWhile(ctx, [&] { return log.applied_seq() < want; });
    }
    const VirtTime applied_vt = log.AppliedVtOf(want);
    if (applied_vt > gate_vt) {
      gate_vt = applied_vt;
    }
  }
  if (gate_vt != 0) {
    // Reconcile with the latest gated apply time: the acquire completes no
    // earlier than the point at which its last happens-before predecessor
    // became globally visible. A gate slot lost to ring wraparound
    // contributes 0 — a documented conservative modeling choice (the
    // happens-before wait itself is still exact via applied_seq).
    ctx.clock().AdvanceTo(ctx.stats(), gate_vt);
  }
}

// ---------------------------------------------------------------------------
// Acquires (Section 2.4.2)

void CashmereProtocol::AcquireSync(Context& ctx) {
  ProtocolScope scope(ctx);
  const std::uint64_t prev_state = ctx.debug_state();
  ctx.SetDebugState(7, 0);
  UnitState& us = Unit(ctx.unit());
  us.Tick();
  // Async mode: wait (happens-before only) for the log prefixes this
  // acquire depends on, BEFORE draining write notices — the gated agents'
  // posts must be in the bins when the drain runs (the relaxed ordering
  // the replay checker verifies: WN visible before the acquire gate
  // passes, not before the release returns).
  GateOnAppliedSeq(ctx);

  // Distribute global write notices to the per-processor lists of local
  // processors with mappings, stamping the page's write-notice time.
  // The drain-and-distribute is serialized per unit: otherwise a processor
  // could find the bins empty while a concurrent local drainer has not yet
  // posted to the per-processor lists, and would acquire without the
  // invalidations it needs.
  if (IsGlobalLock()) {
    ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                       CostModel::UsToNs(cfg_.costs.dir_lock_us));
  }
  {
    SpinLockGuard acquire_guard(us.acquire_lock());
    deps_.notices->DrainGlobal(ctx.unit(), [&](PageId page) {
      PageLocal& pl = us.Page(page);
      SpinLockGuard guard(pl.lock);
      const std::uint64_t wn_ts = us.Now();
      pl.wn_ts.store(wn_ts, std::memory_order_release);
      if (TraceActive()) {
        TraceEmit(EventKind::kWnDrainGlobal, page, NextTraceSeq(pl), 0, wn_ts);
      }
      for (int li = 0; li < cfg_.procs_per_unit(); ++li) {
        if (pl.PermOfLocal(li) != Perm::kInvalid) {
          deps_.notices->PostLocal(GlobalProc(ctx.unit(), li), page);
        }
      }
    });
  }

  ctx.SetDebugState(7, 1);  // past the global drain
  // Process this processor's own list: invalidate pages whose last update
  // precedes their last write notice.
  deps_.notices->DrainLocal(ctx.proc(), [&](PageId page) {
    PageLocal& pl = us.Page(page);
    SpinLockGuard guard(pl.lock);
    if (UnitAtMaster(ctx.unit(), page)) {
      return;  // the master copy is always current
    }
    const bool stale = pl.update_ts.load(std::memory_order_acquire) <=
                       pl.wn_ts.load(std::memory_order_acquire);
    const bool invalidate = stale && pl.PermOfLocal(ctx.local_index()) != Perm::kInvalid;
    if (TraceActive()) {
      TraceEmit(EventKind::kWnConsumeLocal, page, NextTraceSeq(pl),
                invalidate ? 1u : 0u, 0);
    }
    if (invalidate) {
      ProtectLocal(ctx, pl, ctx.unit(), ctx.local_index(), page, Perm::kInvalid);
      RefreshLoosestPerm(ctx, pl, page);
    }
  });
  // One commit for the whole drain: the invalidations collected under the
  // per-page locks above coalesce into ranged mprotects, and they must be
  // in hardware before the acquire returns — user code may read these
  // pages the next instruction.
  CommitPermBatch(ctx);
  ctx.SetDebugState(static_cast<int>(prev_state >> 56), prev_state & 0xffffffffull);
}

// ---------------------------------------------------------------------------
// Barrier bookkeeping

void CashmereProtocol::BarrierArriveBegin(Context& ctx) {
  Unit(ctx.unit())
      .barrier_arrived_mask()
      .fetch_or(1u << ctx.local_index(), std::memory_order_acq_rel);
}

void CashmereProtocol::BarrierDepartEnd(Context& ctx) {
  Unit(ctx.unit())
      .barrier_arrived_mask()
      .fetch_and(~(1u << ctx.local_index()), std::memory_order_acq_rel);
}

void CashmereProtocol::FinalFlush(Context& ctx) {
  UnitState& us = Unit(ctx.unit());
  // Async mode: the gated AcquireSync of the preceding full barrier already
  // covers every record published before the barrier's arrivals, so the
  // logs are normally drained here. Wait for our own unit's log anyway
  // (belt and braces — e.g. an app whose last release raced the barrier):
  // the quiesce below reads master frames the agent may still write.
  if (deps_.coh != nullptr) {
    const CoherenceLog& log = deps_.coh->LogOf(ctx.unit());
    ServeWhile(ctx, [&] { return !log.Empty(); });
  }
  for (PageId page = 0; page < cfg_.pages(); ++page) {
    PageLocal& pl = us.Page(page);
    SpinLockGuard guard(pl.lock);
    if (UnitAtMaster(ctx.unit(), page)) {
      continue;
    }
    if (pl.exclusive) {
      CopyPage(MasterPtr(page), WorkingPtr(ctx.unit(), page));
      pl.exclusive = false;
      if (TraceActive()) {
        TraceEmit(EventKind::kExclBreak, page, NextTraceSeq(pl),
                  static_cast<std::uint32_t>(pl.excl_proc), 0);
      }
    } else if (pl.twin_valid) {
      DiffScanStats scan;
      const std::size_t words =
          ApplyOutgoingDiff(WorkingPtr(ctx.unit(), page), TwinPtr(ctx.unit(), page),
                            MasterPtr(page), true, &scan);
      if (TraceActive()) {
        TraceEmit(EventKind::kDiffApplyOutgoing, page, NextTraceSeq(pl),
                  static_cast<std::uint32_t>(scan.runs), words);
      }
    }
    pl.dirty_mask = 0;
  }
  // Currently a no-op (the loop above copies through arena pointers and
  // queues nothing), but the end-of-run quiesce is an episode boundary and
  // keeps the inventory rule: no episode exits with a pending batch.
  CommitPermBatch(ctx);
}

// ---------------------------------------------------------------------------
// First touch (Section 2.3)

void CashmereProtocol::MaybeFirstTouch(Context& ctx, PageId page) {
  if (!cfg_.first_touch || !deps_.homes->FirstTouchEnabled()) {
    return;
  }
  const std::size_t sp = deps_.homes->SuperpageOf(page);
  if (!deps_.homes->IsDefault(sp)) {
    return;
  }
  // "To relocate a page a processor must acquire a global lock"; ordinary
  // page operations skip it because they always follow the unit's first
  // access. The lock cost is the directory-entry lock cost from Section 3.1.
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     CostModel::UsToNs(cfg_.costs.dir_lock_us));
  SpinLock& lock = deps_.homes->GlobalLock();
  Backoff backoff;
  while (!lock.TryLock()) {
    // Keep servicing requests: other units may need this unit's pages
    // while we wait for home selection.
    if (deps_.msg->HasPending(ctx.unit())) {
      deps_.msg->Poll(ctx.unit());
    }
    backoff.Pause();
  }
  if (!deps_.homes->IsDefault(sp)) {
    lock.Unlock();
    return;  // someone else won the race
  }
  if (deps_.homes->HomeOfSuperpage(sp) != ctx.unit()) {
    // Relocation copies the master frames, so it is only safe when every
    // master copy is current. A page held in exclusive mode elsewhere has
    // an out-of-date master (the holder flushes only when broken), so the
    // superpage keeps its round-robin home.
    bool any_exclusive = false;
    const PageId first = static_cast<PageId>(sp * deps_.homes->superpage_pages());
    const PageId last = static_cast<PageId>(
        std::min<std::size_t>((sp + 1) * deps_.homes->superpage_pages(), cfg_.pages()));
    for (PageId page = first; page < last && !any_exclusive; ++page) {
      any_exclusive = deps_.dir->ExclusiveHolder(page) >= 0;
    }
    if (!any_exclusive) {
      RelocateSuperpage(ctx, sp, ctx.unit());
      lock.Unlock();
      return;
    }
  }
  deps_.homes->SealDefault(sp);
  lock.Unlock();
}

void CashmereProtocol::RelocateSuperpage(Context& ctx, std::size_t sp, UnitId new_home) {
  const UnitId old_home = deps_.homes->HomeOfSuperpage(sp);
  UnitState& old_us = Unit(old_home);
  UnitState& new_us = Unit(new_home);
  const PageId first = static_cast<PageId>(sp * deps_.homes->superpage_pages());
  const PageId last = static_cast<PageId>(
      std::min<std::size_t>((sp + 1) * deps_.homes->superpage_pages(), cfg_.pages()));

  for (PageId page = first; page < last; ++page) {
    PageLocal& opl = old_us.Page(page);
    SpinLockGuard old_guard(opl.lock);
    const bool old_home_maps = opl.Loosest(cfg_.procs_per_unit()) != Perm::kInvalid;
    // Quiesce the old home: downgrade its writers so future modifications
    // are tracked like any non-home unit's.
    for (int li = 0; li < cfg_.procs_per_unit(); ++li) {
      if (opl.PermOfLocal(li) == Perm::kReadWrite) {
        ProtectLocal(ctx, opl, old_home, li, page, Perm::kRead);
      }
    }
    // The old-home downgrades must be in hardware before the master copy
    // moves below: a writer left RW would dirty the old frame after it was
    // copied, and the write would vanish.
    CommitPermBatch(ctx);
    // No twin-discard event for the old home: master units never hold twins
    // (and the event stream attributes sequenced events to the emitting
    // processor's unit, which is the new home here).
    opl.exclusive = false;
    opl.SetTwinValid(false);
    opl.dirty_mask = 0;

    PageLocal& npl = new_us.Page(page);
    SpinLockGuard new_guard(npl.lock);
    // Move the master copy.
    std::byte* old_master =
        (*deps_.arenas)[static_cast<std::size_t>(old_home)]->PagePtr(page);
    std::byte* new_master =
        (*deps_.arenas)[static_cast<std::size_t>(new_home)]->PagePtr(page);
    CopyPage(new_master, old_master);
    deps_.hub->AccountWrite(Traffic::kPageData, kPageBytes);
    SetTwinTraced(npl, page, false);
    npl.ever_valid = true;
    npl.update_ts.store(new_us.Tick(), std::memory_order_release);
    if (TraceActive()) {
      TraceEmit(EventKind::kHomeRelocate, page, NextTraceSeq(npl),
                static_cast<std::uint32_t>(new_home),
                static_cast<std::uint64_t>(old_home));
    }
    // The old home's frame still holds the current data, but it stays
    // current only for a unit in the sharing set: write notices reach no
    // one else, and an exclusive claim at the new home is blind to a copy
    // the directory does not list. An old home with no mapping must fetch
    // on its next access.
    opl.ever_valid = old_home_maps;
    if (old_home_maps) {
      opl.update_ts.store(old_us.Tick(), std::memory_order_release);
    }
    ctx.stats().Add(Counter::kHomeRelocations);
  }
  deps_.homes->Relocate(sp, new_home);
  ctx.clock().Charge(ctx.stats(), TimeCategory::kProtocol,
                     cfg_.costs.PageTransferNs(false, cfg_.two_level()) *
                         static_cast<std::uint64_t>(last - first));

  // Home-node optimization: remap views whose master-sharing status for
  // this superpage changed.
  if (cfg_.home_opt && !cfg_.two_level()) {
    for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
      const UnitId pu = cfg_.UnitOfProc(p);
      const bool now_master = UnitAtMaster(pu, first);
      const Arena& desired = now_master
                                 ? *(*deps_.arenas)[static_cast<std::size_t>(new_home)]
                                 : *(*deps_.arenas)[static_cast<std::size_t>(pu)];
      if (cfg_.fault_mode == FaultMode::kSigsegv) {
        ViewOf(p).RemapSuperpage(sp, desired);
      }
      UnitState& pus = Unit(pu);
      for (PageId page = first; page < last; ++page) {
        PageLocal& pl = pus.Page(page);
        SpinLockGuard guard(pl.lock);
        pl.SetPermOfLocal(p - cfg_.FirstProcOfUnit(pu), Perm::kInvalid);
        if (cfg_.fault_mode == FaultMode::kSigsegv) {
          // Explicitly re-queue kInvalid for the remapped range: a batched
          // entry for this (proc, page) committed between the remap and
          // this store would have resolved against the pre-remap page
          // table and re-opened the fresh PROT_NONE mapping. The entry
          // re-asserts the page table's truth; in the common case the
          // shadow already reads kInvalid and the commit elides it.
          ctx.perm_batch().Add(p, page, Perm::kInvalid);
        }
      }
    }
  }
  CommitPermBatch(ctx);
}

}  // namespace cashmere
