// Per-processor execution context: identity, virtual clock, statistics,
// and the application-facing API (shared pointers, synchronization,
// polling). One Context per emulated processor, bound to its thread for
// the duration of Runtime::Run.
#ifndef CASHMERE_RUNTIME_CONTEXT_HPP_
#define CASHMERE_RUNTIME_CONTEXT_HPP_

#include <atomic>
#include <cstddef>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/stats.hpp"
#include "cashmere/common/types.hpp"
#include "cashmere/common/virtual_clock.hpp"

namespace cashmere {

struct CoherenceRecord;
class DiffBuffer;
class PermBatch;
class Runtime;

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- Identity -------------------------------------------------------
  ProcId proc() const { return proc_; }
  NodeId node() const { return node_; }
  UnitId unit() const { return unit_; }
  int local_index() const { return local_index_; }  // index within the unit
  int total_procs() const { return total_procs_; }

  // --- Shared memory --------------------------------------------------
  // Translates a heap offset into this processor's view. The returned
  // pointer is only valid on this processor (each processor has its own
  // mapping, as on the real system).
  template <typename T>
  T* Ptr(GlobalAddr addr) const {
    return reinterpret_cast<T*>(view_base_ + addr);
  }
  std::byte* view_base() const { return view_base_; }

  // --- Synchronization (Section 2.2, "Synchronization Primitives") ----
  void LockAcquire(int lock_id);
  void LockRelease(int lock_id);
  void Barrier(int barrier_id);
  void FlagSet(int flag_id, std::uint64_t value);
  void FlagWaitGe(int flag_id, std::uint64_t value);  // wait until flag >= value
  // Reads the flag's current value WITHOUT acquire semantics: useful for
  // cheap idle-loop checks before a real FlagWaitGe.
  std::uint64_t FlagPeek(int flag_id);

  // Collective: marks the end of application initialization, enabling
  // first-touch home relocation (Section 2.3).
  void InitDone();

  // --- Polling (Figure 5) ----------------------------------------------
  // Call at loop heads, as the paper's instrumentation pass does.
  void Poll();

  // Spins (polling) while `pred()` holds. The wait's host CPU time is not
  // charged as user compute — the processor is waiting, not working — so
  // virtual time advances only through the event that ends the wait (e.g.
  // a subsequent FlagWaitGe reconciling with the setter's clock).
  template <typename Pred>
  void IdleWhile(Pred pred) {
    clock_.EnterProtocol(stats_);
    while (pred()) {
      Poll();
    }
    clock_.ExitProtocol();
  }

  // --- Instrumentation --------------------------------------------------
  VirtualClock& clock() { return clock_; }
  Stats& stats() { return stats_; }
  Runtime& runtime() const { return *runtime_; }

  // Preallocated per-processor RLE diff scratch (fixed capacity, so the
  // flush paths — including shootdowns inside the SIGSEGV fault handler —
  // never allocate).
  DiffBuffer& diff_scratch() const { return *diff_scratch_; }

  // Preallocated per-processor release record: a release flush encodes
  // the page's diff here, then propagates it in place (synchronous policy)
  // or publishes a copy into the unit's CoherenceLog (asynchronous
  // policy). Same allocation-free discipline.
  CoherenceRecord& release_record() const { return *release_record_; }

  // Preallocated per-processor permission batch (vm/perm_batch.hpp): the
  // protocol queues mprotect transitions here and commits coalesced ranges
  // at episode boundaries. Same allocation-free discipline as diff_scratch.
  PermBatch& perm_batch() const { return *perm_batch_; }

  // Reusable release-time page list (capacity reserved up front, so
  // ReleaseSync never allocates on the hot path).
  std::vector<PageId>& release_scratch() const { return *release_scratch_; }

  // Async release-path coherence: the per-unit log sequences this
  // processor's releases and acquired sync objects have made it depend on
  // (indexed by unit). Written only by the owning processor; sync objects
  // max-fold it through their atomic vectors at release/acquire
  // (protocol/coherence_log.hpp). AcquireSync gates on exactly these
  // entries — the happens-before predecessors — never on unrelated
  // in-flight traffic.
  std::uint64_t* seen_seq() { return seen_seq_; }
  const std::uint64_t* seen_seq() const { return seen_seq_; }

  // The current thread's context (bound by Runtime::Run). Null outside.
  static Context* Current();
  static void Bind(Context* ctx);

  // --- Hang diagnostics --------------------------------------------------
  // A coarse "what am I doing" tag, dumped by the watchdog when a run
  // stops making progress. Kinds: 0 user, 1 fault, 2 await-reply, 3 lock,
  // 4 barrier, 5 flag-wait, 6 release, 7 acquire-sync.
  void SetDebugState(int kind, std::uint64_t detail) {
    debug_state_.store((static_cast<std::uint64_t>(kind) << 56) | (detail & 0xffffffffull),
                       std::memory_order_relaxed);
  }
  std::uint64_t debug_state() const { return debug_state_.load(std::memory_order_relaxed); }

 private:
  friend class Runtime;

  ProcId proc_ = -1;
  NodeId node_ = -1;
  UnitId unit_ = -1;
  int local_index_ = 0;
  int total_procs_ = 0;
  std::byte* view_base_ = nullptr;
  Runtime* runtime_ = nullptr;
  DiffBuffer* diff_scratch_ = nullptr;
  CoherenceRecord* release_record_ = nullptr;
  PermBatch* perm_batch_ = nullptr;
  std::vector<PageId>* release_scratch_ = nullptr;
  VirtualClock clock_;
  Stats stats_;
  std::uint64_t seen_seq_[kMaxProcs] = {};
  std::atomic<std::uint64_t> debug_state_{0};
  std::uint64_t poll_count_pending_ = 0;
};

}  // namespace cashmere

#endif  // CASHMERE_RUNTIME_CONTEXT_HPP_
