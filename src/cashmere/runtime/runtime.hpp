// The Cashmere runtime: brings up the emulated cluster (arenas, views,
// Memory Channel, protocol, synchronization objects), launches one thread
// per emulated processor, routes page faults into the protocol, and
// aggregates statistics into the paper's Table 3 / Figure 6 shape.
//
// Typical use:
//   Config cfg;                       // 8 nodes x 4 processors, 2L, ...
//   Runtime rt(cfg);
//   GlobalAddr data = rt.Alloc(bytes);
//   rt.Run([&](Context& ctx) { ... parallel program ... });
//   const StatsReport& report = rt.report();
#ifndef CASHMERE_RUNTIME_RUNTIME_HPP_
#define CASHMERE_RUNTIME_RUNTIME_HPP_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/stats.hpp"
#include "cashmere/common/trace.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/mc/hub.hpp"
#include "cashmere/msg/message_layer.hpp"
#include "cashmere/protocol/cashmere_protocol.hpp"
#include "cashmere/protocol/directory.hpp"
#include "cashmere/protocol/home_table.hpp"
#include "cashmere/protocol/page_table.hpp"
#include "cashmere/protocol/twin_pool.hpp"
#include "cashmere/protocol/write_notice.hpp"
#include "cashmere/runtime/context.hpp"
#include "cashmere/runtime/heap.hpp"
#include "cashmere/sync/cluster_barrier.hpp"
#include "cashmere/sync/cluster_flag.hpp"
#include "cashmere/sync/cluster_lock.hpp"
#include "cashmere/vm/arena.hpp"
#include "cashmere/vm/fault_dispatcher.hpp"
#include "cashmere/vm/perm_batch.hpp"
#include "cashmere/vm/view.hpp"

namespace cashmere {

// Synchronization object table sizes (application-visible ids).
struct SyncShape {
  int locks = 1024;
  int barriers = 16;
  int flags = 4096;
};

class Runtime : public FaultSink {
 public:
  explicit Runtime(Config cfg, SyncShape sync = {});
  ~Runtime() override;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- Setup (before Run) ----------------------------------------------
  GlobalAddr Alloc(std::size_t bytes, std::size_t align = 64) {
    return heap_.Alloc(bytes, align);
  }
  template <typename T>
  GlobalAddr AllocArray(std::size_t n, std::size_t align = 64) {
    return heap_.Alloc(n * sizeof(T), align);
  }
  SharedHeap& heap() { return heap_; }

  // Direct master-copy access for initialization before Run and result
  // extraction after Run (no protocol involvement).
  void CopyIn(GlobalAddr addr, const void* src, std::size_t bytes);
  void CopyOut(GlobalAddr addr, void* dst, std::size_t bytes) const;
  template <typename T>
  T Read(GlobalAddr addr) const {
    T value;
    CopyOut(addr, &value, sizeof(T));
    return value;
  }

  // --- Execution ---------------------------------------------------------
  // Runs `body` on every emulated processor (one thread each). May be
  // called repeatedly; coherence state persists across phases while
  // statistics and virtual clocks reset, so report() covers the last Run.
  void Run(const std::function<void(Context&)>& body);

  // --- Results ------------------------------------------------------------
  const StatsReport& report() const { return report_; }
  const Config& config() const { return cfg_; }
  McHub& hub() { return hub_; }
  CashmereProtocol& protocol() { return *protocol_; }
  HomeTable& homes() { return homes_; }
  // Non-null iff cfg.async.release: the per-unit coherence logs the cache
  // agents drain (protocol/coherence_log.hpp).
  CoherenceEngine* coherence() { return coh_.get(); }
  // Non-null iff cfg.trace.enabled; holds the last Run's event streams
  // (Run resets the rings at entry). With async.release on, rings
  // [total_procs, total_procs + units) belong to the cache agents.
  TraceLog* trace_log() { return trace_log_.get(); }
  // Transfers ownership of the trace log (e.g. to outlive the Runtime for
  // post-run export/checking). Further Runs on this Runtime trace nothing.
  std::unique_ptr<TraceLog> TakeTraceLog() { return std::move(trace_log_); }

  // --- Internal plumbing (used by Context and the fault dispatcher) -------
  bool HandleFault(void* addr, bool is_write) override;
  ClusterLock& LockAt(int id);
  ClusterBarrier& BarrierAt(int id);
  ClusterFlag& FlagAt(int id);
  void EnableFirstTouchCollective(Context& ctx);
  void BumpProgress() { progress_.fetch_add(1, std::memory_order_relaxed); }
  Context& ContextOf(ProcId proc) { return contexts_[static_cast<std::size_t>(proc)]; }

 private:
  void WatchdogLoop();

  Config cfg_;
  McHub hub_;
  std::vector<std::unique_ptr<Arena>> arenas_;    // per unit
  std::vector<std::unique_ptr<View>> views_;      // per processor
  std::vector<std::unique_ptr<TwinPool>> twins_;  // per unit
  std::vector<std::unique_ptr<UnitState>> units_;
  HomeTable homes_;
  GlobalDirectory dir_;
  WriteNoticeBoard notices_;
  MessageLayer msg_;
  // Async release-path coherence (cfg.async.release): per-unit logs; the
  // agent threads themselves live only for the duration of each Run.
  std::unique_ptr<CoherenceEngine> coh_;
  std::unique_ptr<CashmereProtocol> protocol_;
  SharedHeap heap_;
  std::deque<Context> contexts_;
  // Per-processor RLE diff scratch and release records, preallocated so
  // flush paths (including the SIGSEGV fault handler) never allocate.
  std::vector<std::unique_ptr<DiffBuffer>> diff_scratch_;
  std::unique_ptr<CoherenceRecord[]> release_records_;
  // Per-processor permission batches and release page lists, preallocated
  // under the same no-allocation discipline.
  std::vector<std::unique_ptr<PermBatch>> perm_batch_;
  std::vector<std::unique_ptr<std::vector<PageId>>> release_scratch_;
  std::deque<ClusterLock> locks_;
  std::deque<ClusterBarrier> barriers_;
  std::deque<ClusterFlag> flags_;
  // Internal barrier for InitDone and run start/end (not an app barrier).
  std::unique_ptr<ClusterBarrier> internal_barrier_;
  std::unique_ptr<TraceLog> trace_log_;
  StatsReport report_;
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<bool> running_{false};
  // Run drops running_ under stop_mu_ and signals stop_cv_, so the
  // watchdog's timed wait ends with the run instead of at its next tick.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool ran_ = false;
};

}  // namespace cashmere

#endif  // CASHMERE_RUNTIME_RUNTIME_HPP_
