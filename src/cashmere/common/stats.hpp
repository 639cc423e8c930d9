// Per-processor event counters for the Table 3 statistics, plus the time
// breakdown needed for Figure 6. Each processor owns its own Stats
// instance; aggregation happens after the run. Event counts are relaxed
// atomics with single-writer read-modify-write (plain load + add + store —
// no lock prefix) because the deadlock watchdog samples them from its own
// thread while the run is live.
#ifndef CASHMERE_COMMON_STATS_HPP_
#define CASHMERE_COMMON_STATS_HPP_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "cashmere/common/cost_model.hpp"
#include "cashmere/common/ownership.hpp"
#include "cashmere/common/types.hpp"

namespace cashmere {

// Rows of the paper's Table 3 (plus a few internal extras).
enum class Counter : int {
  kLockAcquires = 0,
  kFlagAcquires,
  kBarriers,
  kReadFaults,
  kWriteFaults,
  kPageTransfers,
  kDirectoryUpdates,
  kWriteNotices,
  kExclTransitions,  // transitions into and out of exclusive mode
  kDataBytes,        // all data placed on the Memory Channel
  kTwinCreations,
  kIncomingDiffs,
  kFlushUpdates,
  kShootdowns,
  kPageFlushes,
  kPolls,
  kMessagesHandled,
  kHomeRelocations,
  // Diff-engine host-side scan instrumentation (not part of Table 3).
  kDiffBlocksScanned,  // 64-byte blocks whose words were loaded
  kDiffBlocksSkipped,  // always 0: every scan covers the whole page
  kDiffRunsEmitted,    // RLE runs emitted by outgoing/incoming scans
  kDiffRunBytes,       // wire-format bytes: run payload + run headers
  kDiffRunApplyBytes,    // wire bytes replayed by the run-serialized apply
  // Structured event tracing (common/trace.hpp).
  kTraceEvents,          // typed events appended to the per-proc rings
  kTraceDrops,           // events lost to ring wraparound
  kMprotectCalls,        // mprotect syscalls issued by PermBatch commits
  kMprotectPagesCoalesced,  // pages whose syscall was merged into a range
                            // (applied pages minus calls)
  // Asynchronous release-path coherence (protocol/coherence_log.hpp).
  kCohLogPublishes,      // records published into the per-unit logs
  kCohLogApplies,        // records applied by the cache agents
  kCohLogPublishStalls,  // publishes that waited on a full ring
  kCohGateWaits,         // acquires that waited on an applied_seq gate
  kReleasePathNs,        // virtual ns spent inside ReleaseSync (critical path)
  // Directory backend instrumentation (protocol/directory_sharded.hpp).
  kDirP2PUpdates,        // directory updates sent point-to-point (sharded)
  kDirBroadcastUpdates,  // directory updates broadcast to every replica
  kDirCacheHits,         // sharded-mode entry-cache hits (folded post-run)
  kDirSegmentsAllocated, // lazily-allocated shard segments (folded post-run)
  kNumCounters,
};
inline constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);

const char* CounterName(Counter c);

struct Stats {
  // Single-writer: only the owning processor's thread calls Add/AddTime.
  // The watchdog may *read* counts concurrently (hence atomics); the
  // plain load + add + store RMW is only safe because of single-writer.
  CSM_SINGLE_WRITER("the processor this Stats instance belongs to")
  std::array<std::atomic<std::uint64_t>, kNumCounters> counts{};
  // time_ns stays plain: it is never read off-thread while the run is live.
  CSM_SINGLE_WRITER("the processor this Stats instance belongs to")
  std::array<std::uint64_t, kNumTimeCategories> time_ns{};
  // Dynamic single-writer verifier (no-op unless ownership checks are on;
  // copying a Stats resets the copy's claim — see OwnerCell).
  OwnerCell owner_check;

  Stats() = default;
  Stats(const Stats& other) { *this = other; }
  Stats& operator=(const Stats& other) {
    for (int i = 0; i < kNumCounters; ++i) {
      counts[i].store(other.counts[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    time_ns = other.time_ns;
    return *this;
  }

  void Add(Counter c, std::uint64_t n = 1) {
    owner_check.NoteWrite("Stats::Add");
    std::atomic<std::uint64_t>& a = counts[static_cast<int>(c)];
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t Get(Counter c) const {
    return counts[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  void AddTime(TimeCategory cat, std::uint64_t ns) {
    owner_check.NoteWrite("Stats::AddTime");
    time_ns[static_cast<int>(cat)] += ns;
  }

  Stats& operator+=(const Stats& other);
};

// Aggregated report over all processors of a run.
struct StatsReport {
  Stats total;
  VirtTime exec_time_ns = 0;  // max final virtual clock over processors
  // Raw host CPU nanoseconds attributed to user compute, summed over
  // processors (pre-scaling); used for dilation correction.
  std::uint64_t user_host_ns = 0;

  double ExecTimeSec() const { return static_cast<double>(exec_time_ns) / 1e9; }
  // Human-readable multi-line summary in the style of the paper's Table 3.
  std::string ToString() const;
  // Machine-readable forms for downstream analysis. The CSV header row and
  // a value row (matching column order); keys are stable kebab-case names.
  static std::string CsvHeader();
  std::string ToCsvRow() const;
};

}  // namespace cashmere

#endif  // CASHMERE_COMMON_STATS_HPP_
