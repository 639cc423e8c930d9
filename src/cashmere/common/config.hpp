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
bool IsTwoLevel(ProtocolVariant v);

// How explicit requests (page fetch, break-exclusive, shootdown) are
// delivered. Polling is the paper's default; interrupt mode only changes
// the charged costs (Section 3.3.4).
enum class DeliveryMode : int {
  kPolling = 0,
  kInterrupt = 1,
};

// How page access faults are generated.
enum class FaultMode : int {
  kSigsegv = 0,    // real mprotect + SIGSEGV, the production path
  kSoftware = 1,   // explicit EnsureRead/EnsureWrite access checks (tests)
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

// Global directory backend selection (protocol/directory.hpp,
// protocol/directory_sharded.hpp, DESIGN.md §13).
enum class DirMode : int {
  // The paper's replicated directory: every unit holds a full replica
  // (O(pages x units) words per node) and every update is an ordered MC
  // broadcast. The default, byte-identical to the historical behaviour.
  kReplicated = 0,
  // Hash-sharded directory: each page's entry lives only on its shard
  // owner (co-located with the HomeTable home), updates are point-to-point
  // writes to that owner, readers go through a per-unit entry cache
  // invalidated on write notices, and entry storage is a reservation the
  // kernel commits on first touch (memory proportional to touched pages).
  kSharded = 1,
};

struct DirTuning {
  DirMode mode = DirMode::kReplicated;
  // Sharded mode: per-unit directory-entry cache size (rounded up to a
  // power of two; direct-mapped).
  std::uint32_t cache_entries = 4096;
  // Sharded mode: pages per shard segment, the grain at which touched
  // entry storage is counted (ResidentBytes, kDirSegmentsAllocated).
  std::uint32_t segment_pages = 64;
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

// Memory Channel transport selection (mc/transport.hpp, DESIGN.md §14).
enum class McTransportKind : int {
  // All emulated nodes in one process; remote writes are atomic stores into
  // the receiver's memory. The default, byte-identical counters to the
  // pre-transport McHub.
  kInProc = 0,
  // One OS process per node: arenas on memfd segments mapped by every node
  // process, ordered ops through a cross-process futex-or-spin lock, UDS
  // control plane for bootstrap/barrier/teardown (tools/cashmere_launch).
  kShm = 1,
};

struct McTuning {
  McTransportKind transport = McTransportKind::kInProc;
};

// Parses a transport name ("inproc" | "shm") into `*out`; false on an
// unknown name. Shared by the CLI drivers' --transport flags.
bool ParseTransportKind(const char* name, McTransportKind* out);

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
  FaultMode fault_mode = FaultMode::kSigsegv;

  TraceOptions trace;
  DirTuning dir;
  AsyncTuning async;
  McTuning mc;
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
    CSM_CHECK(dir.cache_entries >= 1);
    CSM_CHECK(dir.segment_pages >= 1);
  }

  std::string Describe() const;
};

// Applies the CSM_TRANSPORT environment variable (if set) to `cfg->mc`.
// This is how tools/cashmere_launch selects the shm backend in the lead
// process without rewriting its command line; an explicit --transport flag
// parsed afterwards wins. Returns false (cfg untouched) on an unknown value.
bool ApplyTransportEnv(Config* cfg);

}  // namespace cashmere

#endif  // CASHMERE_COMMON_CONFIG_HPP_
