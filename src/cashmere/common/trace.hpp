// Structured protocol event tracing.
//
// Every protocol edge (faults, twin lifecycle, diffs, directory updates,
// write notices, exclusive-mode transitions, synchronization, Memory
// Channel writes) appends a fixed-size typed TraceEvent to a per-processor
// ring buffer. The rings are cache-line aligned, single writer (the bound
// processor thread), no locks, relaxed stores with a release publish, so
// the instrumented paths — including the SIGSEGV fault handler — never
// allocate or synchronize. When the ring
// wraps, the oldest events are overwritten and counted as drops (exposed
// through Counter::kTraceDrops).
//
// After a run the per-processor streams are merged by virtual time into one
// totally-ordered-per-processor stream that the Chrome-trace exporter and
// the replay invariant checker (trace_check.hpp) consume. Per-(unit, page)
// protocol transitions additionally carry a page sequence number
// (PageLocal::trace_seq, bumped under the page lock) because per-processor
// virtual clocks are only partially ordered across processors.
#ifndef CASHMERE_COMMON_TRACE_HPP_
#define CASHMERE_COMMON_TRACE_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "cashmere/common/ownership.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/common/virtual_clock.hpp"

namespace cashmere {

struct Config;

// One enumerator per instrumented protocol edge. Argument conventions are
// documented per kind (a0/a1 are the kind-specific fields of TraceEvent).
enum class EventKind : std::uint8_t {
  kFaultBegin = 0,     // a0 = 1 for write faults, 0 for read faults
  kFaultEnd,           // closes the matching kFaultBegin on the same proc
  kTwinCreate,         // a1 = twin generation after creation (odd)
  kTwinDiscard,        // a1 = twin generation after discard (even)
  kDiffEncode,         // outgoing scan+encode: a0 = runs, a1 = payload words
  kDiffApplyIncoming,  // twin-merge apply: a0 = words, a1 = 1 if piggybacked
                       // on a break-exclusive reply, 0 if fetched from home
  kDiffApplyOutgoing,  // final-flush apply to master: a0 = runs, a1 = words
  kPageCopy,           // full-page transfer into the local frame
  kDirUpdate,          // directory word transition: a0 = packed word,
                       // a1 = unit logical clock at the update
  kWnPost,             // write notice posted: a0 = destination unit
  kWnDrainGlobal,      // notice drained into this unit: a1 = stamped wn_ts
  kWnConsumeLocal,     // notice consumed by a processor: a0 = 1 if the
                       // local mapping was invalidated
  kExclEnter,          // page entered exclusive mode: a0 = holder proc
  kExclBreak,          // exclusive mode broken: a0 = holder proc
  kLockAcquire,        // a0 = lock id, a1 = releaser vt reconciled with
  kLockRelease,        // a0 = lock id, a1 = published release vt
  kFlagSet,            // a0 = flag id, a1 = value
  kFlagWait,           // a0 = flag id, a1 = value waited for
  kBarrierArrive,      // a0 = barrier id, a1 = episode epoch
  kBarrierDepart,      // a0 = barrier id, a1 = episode epoch
  kMcWrite,            // a0 = Traffic class, a1 = bytes placed on the MC
  kReqSend,            // a0 = Request::Kind, a1 = flow id (proc<<32 | seq)
  kReqServe,           // responder handled the request; a1 = flow id
  kReqDone,            // requester observed the reply; a1 = flow id
  kPageProtect,        // vm mapping change: a0 = new Perm, a1 = proc whose
                       // mapping changed (may differ from the emitter)
  kHomeRelocate,       // first-touch relocation: a0 = new home unit,
                       // a1 = old home unit
  kProtectRange,       // one coalesced mprotect issued by a PermBatch
                       // commit: page = first page, a0 = new Perm,
                       // a1 = (proc whose mapping changed) << 32 | page
                       // count; seq = 0 (not a locked page transition)
  kCohPublish,         // async release published a log record: a0 = the
                       // publishing unit, a1 = assigned log sequence;
                       // seq = 0 (the apply is the page transition)
  kCohApply,           // cache agent applied a log record: a0 = the
                       // agent's unit, a1 = log sequence; seq = 0
  kCohGate,            // acquire gated on a unit's applied_seq: a0 = the
                       // unit waited on, a1 = sequence waited for; seq = 0
  kNumKinds,
};
inline constexpr int kNumEventKinds = static_cast<int>(EventKind::kNumKinds);

const char* EventKindName(EventKind kind);

inline constexpr std::uint32_t kNoTracePage = 0xffffffffu;

// Fixed-size trace record. 40 bytes so a default ring stays cache-friendly;
// the layout is padding-free by construction (static_assert below).
struct TraceEvent {
  VirtTime vt = 0;            // emitting processor's virtual clock (ns)
  std::uint64_t host_ns = 0;  // host steady clock (ns since epoch)
  std::uint64_t a1 = 0;       // kind-specific (see EventKind)
  std::uint32_t page = kNoTracePage;
  std::uint32_t seq = 0;      // per-(unit, page) transition sequence; 0 when
                              // the event is not a locked page transition
  std::uint32_t a0 = 0;       // kind-specific (see EventKind)
  std::uint16_t proc = 0;
  std::uint8_t kind = 0;      // EventKind
  std::uint8_t reserved = 0;
};
static_assert(sizeof(TraceEvent) == 40, "TraceEvent must stay fixed-size");

// Single-writer event ring. Only the owning processor thread appends;
// readers either poll the atomic counters (watchdog/tests) or snapshot the
// contents after the writer has quiesced (post-join, ordered by the join).
class alignas(64) TraceRing {
 public:
  explicit TraceRing(std::uint32_t capacity_events);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Owner-only append. Wraps when full: the oldest event is overwritten and
  // counted as dropped. Plain slot store + release publish of the count:
  // safe without a read-modify-write because only the owner ever stores.
  void Append(const TraceEvent& e) {
    owner_check_.NoteWrite("TraceRing::Append");
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(n) & mask_] = e;
    count_.store(n + 1, std::memory_order_release);
  }

  std::uint32_t capacity() const { return static_cast<std::uint32_t>(mask_ + 1); }
  // Total events ever appended (monotone; safe to poll cross-thread).
  std::uint64_t total() const { return count_.load(std::memory_order_acquire); }
  // Events still held (min(total, capacity)) and events lost to wraparound.
  std::uint64_t size() const;
  std::uint64_t dropped() const;

  void Reset() {
    count_.store(0, std::memory_order_release);
    owner_check_.Reset();  // the ring may be adopted by a new owner
  }

  // Copies the retained events in append order (oldest retained first).
  // Only valid once the writer has quiesced.
  void Snapshot(std::vector<TraceEvent>& out) const;

  // Racy-by-design tail read for live diagnostics (the watchdog's stall
  // dump): copies up to `max` of the most recent events into `out` (oldest
  // first) WHILE the owner may still be appending. A slot being overwritten
  // concurrently can yield a torn event; acceptable for a crash dump,
  // never used by the protocol or the replay checker. The corresponding
  // TSan report is suppressed in .tsan-suppressions.
  std::size_t DebugTail(TraceEvent* out, std::size_t max) const;

 private:
  CSM_SINGLE_WRITER("the processor thread bound to this ring")
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_;
  OwnerCell owner_check_;
  alignas(64) std::atomic<std::uint64_t> count_{0};
};

// All per-processor rings of one run, owned by the Runtime.
class TraceLog {
 public:
  TraceLog(int procs, std::uint32_t ring_events);

  int procs() const { return static_cast<int>(rings_.size()); }
  TraceRing& ring(ProcId proc) { return *rings_[static_cast<std::size_t>(proc)]; }
  const TraceRing& ring(ProcId proc) const {
    return *rings_[static_cast<std::size_t>(proc)];
  }

  std::uint64_t TotalEvents() const;
  std::uint64_t TotalDropped() const;
  // A complete stream retains every emitted event (no ring wrapped); the
  // invariant checker only runs its existence/pairing checks on complete
  // streams.
  bool complete() const { return TotalDropped() == 0; }

  void ResetAll();

  // Merges all rings into one stream ordered by (vt, proc, ring position);
  // per-processor append order is preserved.
  std::vector<TraceEvent> Merged() const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

// --- Thread binding -------------------------------------------------------
// Runtime::Run binds each processor thread to its ring alongside
// Context::Bind. The binding lives here (not on Context) so layers below
// the runtime — the MC hub, the message layer, the vm views — can emit
// without a dependency on runtime headers. Unbound threads no-op.
struct TraceBinding {
  TraceRing* ring = nullptr;
  const VirtualClock* clock = nullptr;
  std::uint16_t proc = 0;
};

inline TraceBinding& ThreadTraceBinding() {
  thread_local TraceBinding binding;
  return binding;
}

inline void TraceBindThread(TraceRing* ring, const VirtualClock* clock, ProcId proc) {
  TraceBinding& b = ThreadTraceBinding();
  b.ring = ring;
  b.clock = clock;
  b.proc = static_cast<std::uint16_t>(proc);
}

inline void TraceUnbindThread() { TraceBindThread(nullptr, nullptr, 0); }

// The disabled-tracing cost on instrumented paths is this one thread-local
// load + branch.
inline bool TraceActive() { return ThreadTraceBinding().ring != nullptr; }

inline std::uint64_t TraceHostNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void TraceEmit(EventKind kind, std::uint32_t page, std::uint32_t seq,
                      std::uint32_t a0, std::uint64_t a1) {
  TraceBinding& b = ThreadTraceBinding();
  if (b.ring == nullptr) {
    return;
  }
  TraceEvent e;
  e.vt = b.clock->now();
  e.host_ns = TraceHostNowNs();
  e.a1 = a1;
  e.page = page;
  e.seq = seq;
  e.a0 = a0;
  e.proc = b.proc;
  e.kind = static_cast<std::uint8_t>(kind);
  b.ring->Append(e);
}

// --- Chrome trace_event export -------------------------------------------
// Writes the merged stream as Chrome trace-viewer JSON (chrome://tracing /
// Perfetto): one track per processor grouped by node, duration events for
// fault and barrier episodes, flow arrows for request/reply pairs, instants
// for everything else. `cfg` supplies the proc->node mapping.
void WriteChromeTrace(const std::vector<TraceEvent>& merged, const Config& cfg,
                      std::FILE* out);

}  // namespace cashmere

#endif  // CASHMERE_COMMON_TRACE_HPP_
