// Run configuration: protocol variant, cluster shape, heap geometry, and
// cost-model/feature switches. Mirrors the paper's experimental knobs.
#ifndef CASHMERE_COMMON_CONFIG_HPP_
#define CASHMERE_COMMON_CONFIG_HPP_

#include <cstddef>
#include <cstdint>
#include <string>

#include "cashmere/common/cost_model.hpp"
#include "cashmere/common/logging.hpp"
#include "cashmere/common/types.hpp"

namespace cashmere {

// The protocol family evaluated in the paper.
enum class ProtocolVariant : int {
  kTwoLevel = 0,           // Cashmere-2L: two-way diffing, lock-free structures
  kTwoLevelShootdown = 1,  // Cashmere-2LS: intra-node shootdown of write mappings
  kTwoLevelGlobalLock = 2, // Section 3.3.5 ablation: global-lock directory/WN lists
  kOneLevelDiff = 3,       // Cashmere-1LD: each processor a node, twins + diffs
  kOneLevelWriteDouble = 4,  // Cashmere-1L: write-through (doubled writes) cost model
};

const char* ProtocolVariantName(ProtocolVariant v);
// Inverse of ProtocolVariantName: parses "2L" | "2LS" | "2L-lock" | "1LD" |
// "1L" into `*out`; false (out untouched) on any other name. Shared by the
// CLI drivers' --protocol flags.
bool ParseProtocolVariant(const char* name, ProtocolVariant* out);
bool IsTwoLevel(ProtocolVariant v);

// How explicit requests (page fetch, break-exclusive, shootdown) are
// delivered. Polling is the paper's default; interrupt mode only changes
// the charged costs (Section 3.3.4).
enum class DeliveryMode : int {
  kPolling = 0,
  kInterrupt = 1,
};

// --- Variant option groups ------------------------------------------------
// The feature switches are grouped by subsystem rather than kept as flat
// Config fields. Each group is a plain struct with defaults matching the
// historical flat fields exactly; Config::Describe renders every active
// variant flag through a single registration table in config.cpp, so a new
// switch needs one field here and one table row there.

// Structured event tracing (common/trace.hpp).
struct TraceOptions {
  // Record typed protocol events into per-processor rings. Off by default:
  // the disabled cost on instrumented paths is one thread-local load.
  bool enabled = false;
  // Ring capacity in events per processor (rounded up to a power of two).
  // 16Ki events x 40 bytes = 640 KB per processor; when a ring wraps, the
  // oldest events are dropped and counted (Counter::kTraceDrops).
  std::uint32_t ring_events = 1u << 14;
};

// Asynchronous release-path coherence (protocol/coherence_log.hpp,
// DESIGN.md §12). Named `async` rather than the issue's `protocol.*`
// spelling because Config::protocol is the variant enum.
struct AsyncTuning {
  // Publish release-path diff replay and write-notice posting into the
  // per-unit CoherenceLog, drained by a background cache-agent thread, and
  // gate acquires on the happens-before sequence vector instead of waiting
  // for all in-flight traffic. On by default for the lock-free two-level
  // variants (2L, 2L-lock), where the pipeline has soaked through the TSan
  // CI job and the bench_async_release gate; other variants ignore it (see
  // Config::AsyncRelease). Set false to force the historical synchronous
  // release path.
  bool release = true;
};

// Cost-model scaling knobs.
struct CostTuning {
  // Multiplier applied to every modeled protocol cost (Runtime applies it
  // to `costs` at construction). Benchmarks on scaled-down problems set
  // this to sizeratio-derived values so the compute-to-communication ratio
  // matches the paper's full-size runs; 1.0 charges the paper's absolute
  // costs.
  double scale = 1.0;
  // Host-to-Alpha user-time scale. 0 means auto-calibrate at startup.
  double time_scale = 0.0;
};

struct Config {
  ProtocolVariant protocol = ProtocolVariant::kTwoLevel;
  int nodes = 8;
  int procs_per_node = 4;

  std::size_t heap_bytes = 8 * 1024 * 1024;
  // Pages per superpage (one Memory Channel mapping per superpage; all
  // pages of a superpage share a home node).
  std::size_t superpage_pages = 16;

  // Home-node optimization for the one-level protocols: processors on the
  // home processor's SMP node work directly on the master copy.
  bool home_opt = false;
  // First-touch home relocation after initialization (Section 2.3).
  bool first_touch = true;

  DeliveryMode delivery = DeliveryMode::kPolling;

  TraceOptions trace;
  AsyncTuning async;
  CostTuning cost;

  CostModel costs;
  // Abort the run if no processor makes progress for this many seconds of
  // real time (deadlock watchdog); 0 disables.
  double watchdog_seconds = 120.0;

  int total_procs() const { return nodes * procs_per_node; }
  std::size_t pages() const { return heap_bytes / kPageBytes; }
  std::size_t superpages() const {
    return (pages() + superpage_pages - 1) / superpage_pages;
  }
  std::size_t superpage_bytes() const { return superpage_pages * kPageBytes; }

  // Number of coherence units and their mapping to processors.
  bool two_level() const { return IsTwoLevel(protocol); }
  int units() const { return two_level() ? nodes : total_procs(); }
  int procs_per_unit() const { return two_level() ? procs_per_node : 1; }
  UnitId UnitOfProc(ProcId p) const { return two_level() ? p / procs_per_node : p; }
  NodeId NodeOfProc(ProcId p) const { return p / procs_per_node; }
  ProcId FirstProcOfUnit(UnitId u) const { return u * procs_per_unit(); }

  // Whether the async release-path pipeline is active for this run: the
  // `async.release` switch applies to the lock-free two-level variants
  // only. 2LS flushes synchronously by construction (shootdown + full-page
  // overwrite), and the one-level protocols have not soaked with the
  // agents, so they keep the synchronous release regardless of the switch.
  bool AsyncRelease() const {
    return async.release && (protocol == ProtocolVariant::kTwoLevel ||
                             protocol == ProtocolVariant::kTwoLevelGlobalLock);
  }

  void Validate() const {
    // DirWord::Pack stores the exclusive-holder processor id in 6 bits
    // (directory.hpp); a larger cluster would silently truncate the id and
    // corrupt exclusive-holder identity, so reject it at config load,
    // before the per-dimension caps (which may grow past it some day).
    CSM_CHECK(nodes >= 1 && procs_per_node >= 1);
    CSM_CHECK(total_procs() <= 64 &&
              "DirWord::Pack holds excl_proc in 6 bits: at most 64 processors");
    CSM_CHECK(nodes <= kMaxNodes);
    CSM_CHECK(procs_per_node <= kMaxProcsPerNode);
    CSM_CHECK(heap_bytes % kPageBytes == 0);
    CSM_CHECK(heap_bytes >= kPageBytes);
    CSM_CHECK(superpage_pages >= 1);
  }

  std::string Describe() const;
};

}  // namespace cashmere

#endif  // CASHMERE_COMMON_CONFIG_HPP_
