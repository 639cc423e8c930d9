#include "cashmere/runtime/runtime.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "cashmere/common/calibration.hpp"
#include "cashmere/common/logging.hpp"
#include "cashmere/common/ownership.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/protocol/diff.hpp"

namespace cashmere {

namespace {

// glibc raises its mmap threshold to the size of every mmapped block that
// is freed, so once one Runtime is torn down the next one's large rings
// (message bins, coherence logs) come from the malloc heaps instead, where
// thread timing decides how much of them stays resident afterwards. Pinning
// the threshold at glibc's default turns that adjustment off: every buffer
// above it gets its own mapping and goes back to the OS with its Runtime, so
// a Runtime's footprint does not depend on what ran before it in the
// process. Process-wide, set once, before the first member allocates.
void PinMallocMmapThreshold() {
  static const bool pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1;
  CSM_CHECK(pinned);
}

}  // namespace

Runtime::Runtime(Config cfg, SyncShape sync)
    : cfg_((PinMallocMmapThreshold(), std::move(cfg))),
      hub_(cfg_.units()),
      homes_(((void)cfg_.Validate(), cfg_)),
      dir_(cfg_, hub_),
      notices_(cfg_, hub_),
      msg_(cfg_),
      heap_(cfg_.heap_bytes) {
  if (cfg_.cost.scale != 1.0 && cfg_.cost.scale > 0.0) {
    cfg_.costs = cfg_.costs.ScaledBy(cfg_.cost.scale);
  }
  hub_.set_ns_per_byte(cfg_.costs.mc_ns_per_byte);
  const int units = cfg_.units();
  arenas_.reserve(static_cast<std::size_t>(units));
  twins_.reserve(static_cast<std::size_t>(units));
  units_.reserve(static_cast<std::size_t>(units));
  for (UnitId u = 0; u < units; ++u) {
    arenas_.push_back(std::make_unique<Arena>(cfg_.heap_bytes, "cashmere-arena"));
    twins_.push_back(std::make_unique<TwinPool>(cfg_.heap_bytes));
    units_.push_back(std::make_unique<UnitState>(cfg_, u));
  }

  views_.reserve(static_cast<std::size_t>(cfg_.total_procs()));
  for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
    const UnitId u = cfg_.UnitOfProc(p);
    views_.push_back(std::make_unique<View>(cfg_, *arenas_[static_cast<std::size_t>(u)]));
    if (cfg_.home_opt && !cfg_.two_level()) {
      // Home-node optimization: map master frames for superpages whose home
      // processor shares this processor's SMP node.
      for (std::size_t sp = 0; sp < homes_.superpages(); ++sp) {
        const UnitId home = homes_.HomeOfSuperpage(sp);
        if (home != u &&
            cfg_.NodeOfProc(cfg_.FirstProcOfUnit(home)) == cfg_.NodeOfProc(p)) {
          views_.back()->RemapSuperpage(sp, *arenas_[static_cast<std::size_t>(home)]);
        }
      }
    }
    if (cfg_.fault_mode == FaultMode::kSoftware) {
      // Software fault mode: accesses are checked explicitly, so the view
      // is opened whole with a single ranged mprotect.
      views_.back()->ProtectRange(0, cfg_.pages(), Perm::kReadWrite);
    }
  }

  CashmereProtocol::Deps deps;
  deps.cfg = &cfg_;
  deps.hub = &hub_;
  deps.msg = &msg_;
  deps.dir = &dir_;
  deps.homes = &homes_;
  deps.notices = &notices_;
  deps.arenas = &arenas_;
  deps.views = &views_;
  deps.twins = &twins_;
  deps.units = &units_;
  if (cfg_.AsyncRelease()) {
    coh_ = std::make_unique<CoherenceEngine>(cfg_);
    deps.coh = coh_.get();
  }
  protocol_ = std::make_unique<CashmereProtocol>(deps);

  for (int i = 0; i < sync.locks; ++i) {
    locks_.emplace_back(cfg_, hub_, *protocol_);
    locks_.back().set_trace_id(i);
  }
  for (int i = 0; i < sync.barriers; ++i) {
    barriers_.emplace_back(cfg_, hub_, *protocol_);
    barriers_.back().set_trace_id(i);
  }
  for (int i = 0; i < sync.flags; ++i) {
    flags_.emplace_back(cfg_, hub_, *protocol_);
    flags_.back().set_trace_id(i);
  }
  internal_barrier_ =
      std::make_unique<ClusterBarrier>(cfg_, hub_, *protocol_, /*counted=*/false);
  if (cfg_.trace.enabled) {
    // One ring per processor, plus one per cache agent in async mode
    // (rings [total_procs, total_procs + units)).
    const int rings =
        cfg_.total_procs() + (cfg_.AsyncRelease() ? cfg_.units() : 0);
    trace_log_ = std::make_unique<TraceLog>(rings, cfg_.trace.ring_events);
  }

  // One default-initialised block: only each record's header and used wire
  // prefix are ever written, so the rest of the ~16 KB images never
  // becomes resident.
  release_records_ = std::make_unique_for_overwrite<CoherenceRecord[]>(
      static_cast<std::size_t>(cfg_.total_procs()));
  for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
    contexts_.emplace_back();
    Context& ctx = contexts_.back();
    ctx.proc_ = p;
    ctx.node_ = cfg_.NodeOfProc(p);
    ctx.unit_ = cfg_.UnitOfProc(p);
    ctx.local_index_ = p - cfg_.FirstProcOfUnit(ctx.unit_);
    ctx.total_procs_ = cfg_.total_procs();
    ctx.view_base_ = views_[static_cast<std::size_t>(p)]->base();
    ctx.runtime_ = this;
    diff_scratch_.push_back(std::make_unique<DiffBuffer>());
    ctx.diff_scratch_ = diff_scratch_.back().get();
    ctx.release_record_ = &release_records_[static_cast<std::size_t>(p)];
    perm_batch_.push_back(std::make_unique<PermBatch>());
    // &ctx.stats_ is stable: contexts_ is a deque and never shrinks.
    perm_batch_.back()->Bind(&views_, &CashmereProtocol::ResolveQueuedPerm,
                             protocol_.get(), &ctx.stats_);
    ctx.perm_batch_ = perm_batch_.back().get();
    release_scratch_.push_back(std::make_unique<std::vector<PageId>>());
    // Dirty + NLE lists can each hold every page once.
    release_scratch_.back()->reserve(2 * cfg_.pages());
    ctx.release_scratch_ = release_scratch_.back().get();
  }
}

Runtime::~Runtime() = default;

ClusterLock& Runtime::LockAt(int id) {
  CSM_CHECK(id >= 0 && static_cast<std::size_t>(id) < locks_.size());
  return locks_[static_cast<std::size_t>(id)];
}

ClusterBarrier& Runtime::BarrierAt(int id) {
  CSM_CHECK(id >= 0 && static_cast<std::size_t>(id) < barriers_.size());
  return barriers_[static_cast<std::size_t>(id)];
}

ClusterFlag& Runtime::FlagAt(int id) {
  CSM_CHECK(id >= 0 && static_cast<std::size_t>(id) < flags_.size());
  return flags_[static_cast<std::size_t>(id)];
}

void Runtime::CopyIn(GlobalAddr addr, const void* src, std::size_t bytes) {
  CSM_CHECK(!running_.load());
  const auto* s = static_cast<const std::byte*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const GlobalAddr a = addr + done;
    const PageId page = PageOf(a);
    const std::size_t in_page = std::min(bytes - done, kPageBytes - PageOffset(a));
    std::byte* master = protocol_->MasterPtr(page) + PageOffset(a);
    std::copy_n(s + done, in_page, master);
    done += in_page;
  }
}

void Runtime::CopyOut(GlobalAddr addr, void* dst, std::size_t bytes) const {
  auto* d = static_cast<std::byte*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const GlobalAddr a = addr + done;
    const PageId page = PageOf(a);
    const std::size_t in_page = std::min(bytes - done, kPageBytes - PageOffset(a));
    const std::byte* master = protocol_->MasterPtr(page) + PageOffset(a);
    std::copy_n(master, in_page, d + done);
    done += in_page;
  }
}

bool Runtime::HandleFault(void* addr, bool is_write) {
  Context* ctx = Context::Current();
  if (ctx == nullptr || ctx->runtime_ != this) {
    return false;
  }
  View& view = *views_[static_cast<std::size_t>(ctx->proc())];
  if (!view.Contains(addr)) {
    // Check whether the address belongs to another processor's view: that
    // is a program error (views are per-processor, like per-process
    // mappings on the real system), so crash loudly.
    for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
      if (p != ctx->proc() && views_[static_cast<std::size_t>(p)]->Contains(addr)) {
        // csm-lint: allow(fault-path-signal-safety) -- program-error
        // diagnostic on the crash path: the faulting thread touched
        // another processor's view and cannot continue
        std::fprintf(stderr,
                     "cashmere: processor %d touched processor %d's view at %p\n",
                     ctx->proc(), p, addr);
        return false;
      }
    }
    return false;
  }
  BumpProgress();
  protocol_->OnFault(*ctx, view.PageOfAddr(addr), is_write);
  return true;
}

void Runtime::EnableFirstTouchCollective(Context& ctx) {
  internal_barrier_->Wait(ctx);
  if (ctx.proc() == 0) {
    homes_.EnableFirstTouch();
  }
  internal_barrier_->Wait(ctx);
}

void Runtime::WatchdogLoop() {
  using Clock = std::chrono::steady_clock;
  // "Progress" means completed work, not spinning: sampled from the
  // per-processor event counters (racy reads are fine for a heuristic).
  // A contended-but-live lock keeps acquiring; a deadlocked run freezes
  // every counter.
  const auto sample = [this] {
    std::uint64_t total = progress_.load(std::memory_order_relaxed) + msg_.heartbeat();
    for (const Context& ctx : contexts_) {
      const Stats& s = ctx.stats_;
      total += s.Get(Counter::kLockAcquires) + s.Get(Counter::kFlagAcquires) +
               s.Get(Counter::kBarriers) + s.Get(Counter::kReadFaults) +
               s.Get(Counter::kWriteFaults) + s.Get(Counter::kPageTransfers) +
               s.Get(Counter::kMessagesHandled) + s.Get(Counter::kPageFlushes);
    }
    return total;
  };
  std::uint64_t last_progress = sample();
  auto last_change = Clock::now();
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::uint64_t p = sample();
    if (p != last_progress) {
      last_progress = p;
      last_change = Clock::now();
      continue;
    }
    const double stalled =
        std::chrono::duration<double>(Clock::now() - last_change).count();
    if (cfg_.watchdog_seconds > 0 && stalled > cfg_.watchdog_seconds) {
      std::fprintf(stderr,
                   "cashmere: watchdog: no progress for %.0f s (%s) — aborting\n",
                   stalled, cfg_.Describe().c_str());
      for (const Context& ctx : contexts_) {
        const std::uint64_t st = ctx.debug_state();
        std::fprintf(stderr, "  p%-2d state=%llu detail=%llu vt=%.6f\n", ctx.proc(),
                     (unsigned long long)(st >> 56),
                     (unsigned long long)(st & 0xffffffffull),
                     static_cast<double>(ctx.clock_.now()) / 1e9);
      }
      for (std::size_t i = 0; i < locks_.size(); ++i) {
        if (locks_[i].DebugBusy()) {
          locks_[i].DebugDump(static_cast<int>(i));
        }
      }
      for (UnitId u = 0; u < cfg_.units(); ++u) {
        for (PageId page = 0; page < cfg_.pages(); ++page) {
          PageLocal& pl = protocol_->PageState(u, page);
          const bool fip = pl.fetch_in_progress.load(std::memory_order_relaxed);
          // excl/twin are lock-guarded: sample them while the probe holds
          // the lock (the seed read them after Unlock — a data race). When
          // the lock is busy they are unknown, reported as -1.
          int excl = -1;
          int twin = -1;
          const bool got = pl.lock.TryLock();
          if (got) {
            excl = pl.exclusive ? 1 : 0;
            twin = pl.twin_valid ? 1 : 0;
            pl.lock.Unlock();
          }
          if (fip || !got) {
            std::fprintf(stderr,
                         "  unit=%d page=%u pl=%x fip=%d lock_held=%d excl=%d twin=%d\n", u,
                         page,
                         (unsigned)(reinterpret_cast<std::uintptr_t>(&pl) & 0xffffffffu),
                         fip ? 1 : 0, got ? 0 : 1, excl, twin);
          }
        }
      }
      if (trace_log_) {
        // Live trace drain: dump each processor's retained ring tail so a
        // stall shows *what the protocol was doing*, not just where each
        // processor is parked. DebugTail reads race the (possibly still
        // appending) owners by design; a torn record at worst prints one
        // nonsense line in a crash dump.
        std::fprintf(stderr, "cashmere: watchdog: trace ring tails (racy read):\n");
        constexpr std::size_t kTailEvents = 16;
        TraceEvent tail[kTailEvents];
        // trace_log_->procs() covers the cache-agent rings too (async mode).
        for (ProcId tp = 0; tp < trace_log_->procs(); ++tp) {
          const std::size_t n = trace_log_->ring(tp).DebugTail(tail, kTailEvents);
          for (std::size_t i = 0; i < n; ++i) {
            const TraceEvent& e = tail[i];
            std::fprintf(stderr,
                         "  p%-2d %-18s page=%d seq=%u a0=%u a1=%llu vt=%.6f\n", tp,
                         EventKindName(static_cast<EventKind>(e.kind)),
                         e.page == kNoTracePage ? -1 : static_cast<int>(e.page), e.seq,
                         e.a0, (unsigned long long)e.a1,
                         static_cast<double>(e.vt) / 1e9);
          }
        }
      }
      std::abort();
    }
  }
}

void Runtime::Run(const std::function<void(Context&)>& body) {
  // Run may be called repeatedly: protocol state (cached pages, homes)
  // persists across phases; per-processor statistics and clocks reset so
  // each report covers one Run.
  ran_ = true;
  for (Context& ctx : contexts_) {
    ctx.stats_ = Stats{};
  }
  if (trace_log_) {
    trace_log_->ResetAll();
  }
  const double scale = cfg_.cost.time_scale > 0 ? cfg_.cost.time_scale : HostToAlphaTimeScale();

  if (cfg_.fault_mode == FaultMode::kSigsegv) {
    FaultDispatcher::Instance().Register(this);
  }
  running_.store(true, std::memory_order_release);
  std::thread watchdog([this] { WatchdogLoop(); });

  // Cache-agent threads (async release-path coherence): one per unit,
  // spawned before the processor threads so the logs drain from the first
  // publish. Each agent owns its own clock, stats, and (when tracing)
  // ring, under agent proc id total_procs + unit — ids beyond kMaxProcs
  // never index per-processor protocol state; they exist for the
  // ownership checker and the trace stream.
  struct AgentState {
    VirtualClock clock;
    Stats stats;
  };
  std::deque<AgentState> agent_states;
  std::vector<std::thread> agent_threads;
  std::atomic<bool> agents_stop{false};
  if (coh_) {
    for (UnitId u = 0; u < cfg_.units(); ++u) {
      agent_states.emplace_back();
    }
    for (UnitId u = 0; u < cfg_.units(); ++u) {
      agent_threads.emplace_back([this, u, scale, &agent_states, &agents_stop] {
        AgentState& as = agent_states[static_cast<std::size_t>(u)];
        const ProcId agent_id = cfg_.total_procs() + u;
        OwnershipBindThread(agent_id, u);
        as.clock.Start(scale);
        if (trace_log_) {
          TraceBindThread(&trace_log_->ring(agent_id), &as.clock, agent_id);
        }
        CoherenceLog& log = coh_->LogOf(u);
        Backoff backoff;
        while (true) {
          const CoherenceRecord* rec = log.Peek();
          if (rec == nullptr) {
            // Drain-before-exit: the stop flag is only honoured on an
            // empty log, so every published record is applied even when
            // stop raced a publish.
            if (agents_stop.load(std::memory_order_acquire)) {
              break;
            }
            backoff.Pause();
            continue;
          }
          backoff.Reset();
          // The apply begins no earlier than the publish; the gap (the
          // agent was busy or idle) is the pipeline's latency, visible to
          // acquirers only through the gate.
          as.clock.AdvanceTo(as.stats, rec->publish_vt);
          protocol_->AgentApply(u, *rec, as.clock, as.stats);
          log.PopApplied(as.clock.now());
        }
        TraceUnbindThread();
        OwnershipUnbindThread();
      });
    }
  }

  std::vector<VirtTime> final_vt(static_cast<std::size_t>(cfg_.total_procs()), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg_.total_procs()));
  for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
    threads.emplace_back([this, p, scale, &body, &final_vt] {
      Context& ctx = contexts_[static_cast<std::size_t>(p)];
      Context::Bind(&ctx);
      // Declare this thread's identity to the single-writer ownership
      // checker: it is the sole legitimate writer of processor p's stats
      // and trace ring.
      OwnershipBindThread(p, ctx.unit());
      ctx.clock().Start(scale);
      if (trace_log_) {
        TraceBindThread(&trace_log_->ring(p), &ctx.clock(), p);
      }
      body(ctx);
      ctx.clock().AccrueUser(ctx.stats());
      final_vt[static_cast<std::size_t>(p)] = ctx.clock().now();
      // Quiesce: flush outstanding modifications so master copies hold the
      // final data for CopyOut, then drain in two collective steps.
      protocol_->ReleaseSync(ctx, /*barrier_arrival=*/false);
      internal_barrier_->Wait(ctx);
      if (ctx.local_index() == 0) {
        protocol_->FinalFlush(ctx);
      }
      internal_barrier_->Wait(ctx);
      TraceUnbindThread();
      OwnershipUnbindThread();
      Context::Bind(nullptr);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Stop the agents only after every processor thread has finished: the
  // final internal barrier's gated AcquireSync has already forced all
  // published records to be applied, and the drain-before-exit loop covers
  // any straggler, so every log is empty before Run returns (CopyOut reads
  // master copies the agents no longer touch).
  agents_stop.store(true, std::memory_order_release);
  for (auto& t : agent_threads) {
    t.join();
  }
  running_.store(false, std::memory_order_release);
  watchdog.join();
  if (cfg_.fault_mode == FaultMode::kSigsegv) {
    FaultDispatcher::Instance().Unregister(this);
  }

  if (trace_log_) {
    // Fold ring counters into per-processor stats after the join (the join
    // orders the writers' final appends before these reads).
    for (ProcId p = 0; p < cfg_.total_procs(); ++p) {
      const TraceRing& ring = trace_log_->ring(p);
      Stats& s = contexts_[static_cast<std::size_t>(p)].stats_;
      s.Add(Counter::kTraceEvents, ring.total());
      s.Add(Counter::kTraceDrops, ring.dropped());
    }
    // Agent rings fold into the agents' own stats so the counters reach
    // the report through the same path as everything else below.
    for (std::size_t a = 0; a < agent_states.size(); ++a) {
      const TraceRing& ring = trace_log_->ring(cfg_.total_procs() + static_cast<int>(a));
      agent_states[a].stats.Add(Counter::kTraceEvents, ring.total());
      agent_states[a].stats.Add(Counter::kTraceDrops, ring.dropped());
    }
  }

  report_ = StatsReport{};
  for (Context& ctx : contexts_) {
    report_.total += ctx.stats_;
    report_.user_host_ns += ctx.clock_.user_host_ns();
  }
  // Agent counters (applies, replayed diff bytes, deferred write notices)
  // fold into the totals — kDiffRunApplyBytes must keep matching
  // kDiffRunBytes across modes — but agent *time* does not: Figure 6's
  // breakdown covers processor execution time, and the agents' applied
  // time reaches acquirers through the gate reconciliation instead.
  for (const AgentState& as : agent_states) {
    for (int c = 0; c < kNumCounters; ++c) {
      report_.total.Add(static_cast<Counter>(c), as.stats.Get(static_cast<Counter>(c)));
    }
  }
  report_.total.counts[static_cast<int>(Counter::kDataBytes)] = hub_.DataBytes();
  report_.exec_time_ns = *std::max_element(final_vt.begin(), final_vt.end());
}

}  // namespace cashmere
