// Virtual-time cost model. All constants come from the paper's measured
// numbers (Section 2.1, Section 3.1, Table 1) on the 8-node AlphaServer
// 2100 4/233 + Memory Channel prototype. Protocol code charges these costs
// to per-processor virtual clocks; reported execution times are virtual.
#ifndef CASHMERE_COMMON_COST_MODEL_HPP_
#define CASHMERE_COMMON_COST_MODEL_HPP_

#include <cstdint>

#include "cashmere/common/types.hpp"

namespace cashmere {

inline constexpr std::uint64_t kNsPerUs = 1000;

// Time categories for the Figure 6 execution-time breakdown.
enum class TimeCategory : int {
  kUser = 0,
  kProtocol = 1,
  kPolling = 2,
  kCommWait = 3,
  kWriteDoubling = 4,
};
inline constexpr int kNumTimeCategories = 5;

inline const char* TimeCategoryName(TimeCategory c) {
  switch (c) {
    case TimeCategory::kUser:
      return "User";
    case TimeCategory::kProtocol:
      return "Protocol";
    case TimeCategory::kPolling:
      return "Polling";
    case TimeCategory::kCommWait:
      return "Comm & Wait";
    case TimeCategory::kWriteDoubling:
      return "Write Doubling";
  }
  return "?";
}

// All costs in microseconds unless noted. Defaults reproduce the paper.
struct CostModel {
  // Section 2.1: Memory Channel characteristics.
  double mc_write_latency_us = 5.2;  // process-to-process write latency

  // Section 3.1: basic operation costs.
  double mprotect_us = 55.0;
  double page_fault_us = 72.0;  // fault on an already-resident page
  double twin_us = 199.0;       // twinning an 8 KB page
  double dir_update_us = 5.0;   // directory entry modification, lock-free
  double dir_update_locked_us = 16.0;  // with global lock (2L-globallock)
  double dir_lock_us = 11.0;           // acquiring/releasing the entry lock

  // Outgoing diff cost ranges by diff size (Section 3.1). Interpolated
  // linearly between the empty-diff and full-page-diff endpoints.
  double diff_out_remote_min_us = 290.0;  // home remote: written to I/O space
  double diff_out_remote_max_us = 363.0;
  double diff_out_local_min_us = 340.0;  // home local (one-level protocols)
  double diff_out_local_max_us = 561.0;
  double diff_in_min_us = 533.0;  // incoming diff: applies to twin and page
  double diff_in_max_us = 541.0;

  // Table 1: synchronization and page transfers.
  double lock_acquire_2l_us = 19.0;
  double lock_acquire_1l_us = 11.0;
  double barrier_2proc_2l_us = 58.0;
  double barrier_32proc_2l_us = 321.0;
  double barrier_2proc_1l_us = 41.0;
  double barrier_32proc_1l_us = 364.0;
  double page_transfer_local_us = 467.0;   // within the requester's node
  double page_transfer_remote_2l_us = 824.0;
  double page_transfer_remote_1l_us = 777.0;

  // Section 2.3 / Section 3.3.4: interrupts and shootdown.
  double intra_node_interrupt_us = 80.0;   // after the kernel fast-path fix
  double inter_node_interrupt_us = 445.0;
  double shootdown_poll_us = 72.0;       // shoot down one processor, polling
  double shootdown_interrupt_us = 142.0;  // via intra-node interrupts

  // MC bus occupancy: the Memory Channel is a serial interconnect ("MC is
  // a bus", Section 3.3.3), so concurrent transfers queue. Derived from the
  // 29 MB/s per-link sustained bandwidth: ~34.5 ns per byte of page or
  // diff data. This is what penalizes protocols that move more data.
  double mc_ns_per_byte = 1000.0 / 29.0;

  // Polling: the 4-instruction poll sequence of Figure 5 on a 233 MHz Alpha.
  double poll_ns = 17.0;

  // Message handling overhead on the responding processor (function call +
  // bin traversal after a successful poll).
  double request_handle_us = 10.0;

  // Async release-path coherence (DESIGN.md §12): publishing one log
  // record — copying the serialized diff image into the node-local
  // CoherenceLog ring and bumping the sequence — replaces the synchronous
  // diff replay on the releaser's critical path. Local memory traffic, not
  // MC: sized between the bookkeeping-only floor and the 8 KB local copy
  // ceiling (the twin cost bounds a full-page copy at 199 us).
  double log_publish_us = 30.0;

  // Write doubling (Cashmere-1L): per-32-bit-word cost of the doubled
  // write. Remote stores go to uncached I/O space through the write buffer;
  // home-node stores additionally pollute the cache.
  double write_double_word_us = 0.18;
  double write_double_word_home_us = 0.35;

  // Returns a copy with every charged cost multiplied by `f`. Used when a
  // scaled-down problem must keep the paper's compute-to-communication
  // ratio: all protocol costs shrink by one factor, so protocols keep
  // their relative standing (see DESIGN.md, virtual time).
  CostModel ScaledBy(double f) const;

  // Derived helpers ------------------------------------------------------
  std::uint64_t DiffOutNs(std::size_t words_changed, bool home_local) const;
  std::uint64_t DiffInNs(std::size_t words_changed) const;
  std::uint64_t BarrierNs(int total_procs, bool two_level) const;
  std::uint64_t LockAcquireNs(bool two_level) const {
    return UsToNs(two_level ? lock_acquire_2l_us : lock_acquire_1l_us);
  }
  std::uint64_t PageTransferNs(bool requester_on_home_node, bool two_level) const;

  static std::uint64_t UsToNs(double us) { return static_cast<std::uint64_t>(us * 1000.0); }
};

}  // namespace cashmere

#endif  // CASHMERE_COMMON_COST_MODEL_HPP_
