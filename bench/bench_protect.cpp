// Permission-batch engine benchmark (vm/perm_batch.hpp).
//
// The interesting reduction is at the *drain sites* — the acquire-side
// invalidation drain and the release/shootdown downgrade loops — where the
// protocol changes many contiguous pages at once and the batch turns one
// syscall per page into one per coalesced range. Fault-path upgrades stay
// 1:1 in any design (each refault re-opens exactly one page), so the
// end-to-end syscall total is diluted by them; this harness therefore
// classifies every kProtectRange trace event as inside or outside a fault
// episode (per-proc kFaultBegin/kFaultEnd depth) and gates on the
// drain-site reduction.
//
// Three sections:
//   1. drain-replay microbench on a raw View: PermBatch commit vs the
//      historical per-page Protect loop (wall-clock per page, syscalls);
//   2. an acquire-invalidation-heavy producer/sweeping-consumer kernel at
//      32:4 through the full runtime, with the drain-site pages per
//      mprotect measured from the trace. An unbatched drain issues one
//      syscall per page, so this ratio is the drain-site reduction;
//   3. SOR at 32:4 syscall-counter context row.
//
// Exit status is nonzero if any run fails verification or the drain sites
// coalesce fewer than 4 pages per syscall. Results go to stdout and
// BENCH_protect.json.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cashmere/common/trace.hpp"
#include "cashmere/runtime/runtime.hpp"
#include "cashmere/vm/arena.hpp"
#include "cashmere/vm/perm_batch.hpp"
#include "cashmere/vm/view.hpp"

namespace cashmere {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------
// Section 1: drain replay on a raw view.

struct ReplayRow {
  int pages = 0;
  double batched_ns_per_page = 0.0;
  double unbatched_ns_per_page = 0.0;
  std::uint64_t batched_syscalls_per_drain = 0;
};

// Replays an invalidation drain of `pages` contiguous pages `iters` times:
// open the range read-write (untimed), then downgrade to kInvalid either
// through a PermBatch commit or the historical per-page Protect loop.
ReplayRow ReplayDrain(int pages, int iters) {
  Config cfg;
  cfg.nodes = 1;
  cfg.procs_per_node = 1;
  cfg.heap_bytes = static_cast<std::size_t>(pages) * kPageBytes;
  Arena arena(cfg.heap_bytes, "bench-protect");
  std::vector<std::unique_ptr<View>> views;
  views.push_back(std::make_unique<View>(cfg, arena));
  View& view = *views[0];
  PermBatch batch;
  batch.Bind(&views, nullptr, nullptr, nullptr);

  ReplayRow row;
  row.pages = pages;
  std::uint64_t batched_ns = 0;
  std::uint64_t unbatched_ns = 0;
  for (int it = 0; it < iters; ++it) {
    view.ProtectRange(0, static_cast<std::size_t>(pages), Perm::kReadWrite);
    std::uint64_t t0 = NowNs();
    for (PageId p = 0; p < static_cast<PageId>(pages); ++p) {
      batch.Add(0, p, Perm::kInvalid);
    }
    const PermBatch::CommitStats cs = batch.Commit();
    batched_ns += NowNs() - t0;
    row.batched_syscalls_per_drain = cs.syscalls;

    view.ProtectRange(0, static_cast<std::size_t>(pages), Perm::kReadWrite);
    t0 = NowNs();
    for (PageId p = 0; p < static_cast<PageId>(pages); ++p) {
      // csm-lint: allow(raw-view-protect) -- the unbatched baseline arm
      // measures the historical per-page syscall path on purpose
      view.Protect(p, Perm::kInvalid);
    }
    unbatched_ns += NowNs() - t0;
  }
  const double denom = static_cast<double>(pages) * iters;
  row.batched_ns_per_page = static_cast<double>(batched_ns) / denom;
  row.unbatched_ns_per_page = static_cast<double>(unbatched_ns) / denom;
  return row;
}

// ---------------------------------------------------------------------------
// Section 2: acquire-invalidation-heavy kernel through the full runtime.

constexpr int kKernelPages = 48;   // pages the producer dirties per round
constexpr int kKernelRounds = 6;
constexpr int kIntsPerPage = static_cast<int>(kPageBytes / sizeof(int));

struct DrainProfile {
  bool verified = false;
  bool trace_complete = false;
  std::uint64_t drain_calls = 0;   // kProtectRange outside fault episodes
  std::uint64_t drain_pages = 0;   // pages those calls covered
  std::uint64_t fault_calls = 0;   // kProtectRange inside fault episodes
  std::uint64_t total_mprotect = 0;
};

// Producer p0 rewrites kKernelPages contiguous pages each round; every
// other processor full-sweeps them after the barrier. Each round therefore
// hands every consumer an acquire drain of kKernelPages contiguous
// invalidations and the producer a release downgrade of the same span —
// the drain shapes the batch engine exists to coalesce.
DrainProfile RunKernel() {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.heap_bytes = 64 * kPageBytes;
  cfg.first_touch = false;
  cfg.cost.time_scale = 10.0;
  cfg.trace.enabled = true;
  cfg.trace.ring_events = 1u << 18;

  DrainProfile out;
  bool data_ok = true;
  {
    Runtime rt(cfg);
    const GlobalAddr data = rt.heap().AllocPageAligned(
        static_cast<std::size_t>(kKernelPages) * kPageBytes);
    rt.Run([&](Context& ctx) {
      int* p = ctx.Ptr<int>(data);
      for (int round = 0; round < kKernelRounds; ++round) {
        if (ctx.proc() == 0) {
          for (int page = 0; page < kKernelPages; ++page) {
            p[page * kIntsPerPage] = round * kKernelPages + page;
          }
        }
        ctx.Barrier(0);
        if (ctx.proc() != 0) {
          long long sum = 0;
          for (int page = 0; page < kKernelPages; ++page) {
            sum += p[page * kIntsPerPage];
          }
          const long long want = static_cast<long long>(kKernelPages) *
                                     (2 * round * kKernelPages + kKernelPages - 1) / 2;
          if (sum != want) {
            data_ok = false;  // benign race on failure; only flips one way
          }
        }
        ctx.Barrier(0);
      }
    });
    out.verified = data_ok;
    out.total_mprotect = rt.report().total.Get(Counter::kMprotectCalls);

    const std::unique_ptr<TraceLog> trace = rt.TakeTraceLog();
    out.trace_complete = trace->complete();
    std::vector<int> fault_depth(static_cast<std::size_t>(cfg.total_procs()), 0);
    for (const TraceEvent& e : trace->Merged()) {
      switch (static_cast<EventKind>(e.kind)) {
        case EventKind::kFaultBegin:
          ++fault_depth[e.proc];
          break;
        case EventKind::kFaultEnd:
          --fault_depth[e.proc];
          break;
        case EventKind::kProtectRange: {
          const std::uint64_t pages = e.a1 & 0xffffffffu;
          if (fault_depth[e.proc] > 0) {
            ++out.fault_calls;
          } else {
            ++out.drain_calls;
            out.drain_pages += pages;
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

int RunBench(const bench::BenchOptions& opt) {
  bench::PrintHeader("Permission-batch engine: drain-site mprotect coalescing");

  // Section 1: raw drain replay.
  std::printf("%-28s %10s %14s %14s %10s\n", "Drain replay (raw view)", "pages",
              "batched ns/pg", "per-page ns/pg", "syscalls");
  bench::PrintRule(78);
  std::vector<ReplayRow> replay;
  for (const int pages : {8, 32, 128}) {
    replay.push_back(ReplayDrain(pages, /*iters=*/2000));
    const ReplayRow& r = replay.back();
    std::printf("%-28s %10d %14.1f %14.1f %10llu\n", "", r.pages, r.batched_ns_per_page,
                r.unbatched_ns_per_page,
                static_cast<unsigned long long>(r.batched_syscalls_per_drain));
  }

  // Section 2: full-runtime kernel.
  const DrainProfile kernel = RunKernel();
  const double coalesce =
      kernel.drain_calls > 0
          ? static_cast<double>(kernel.drain_pages) / static_cast<double>(kernel.drain_calls)
          : 0.0;
  std::printf("\nProducer/sweeping-consumer kernel, 32:4 2L, %d pages x %d rounds\n",
              kKernelPages, kKernelRounds);
  bench::PrintRule(64);
  std::printf("%-34s %14llu\n", "drain-site mprotect calls",
              static_cast<unsigned long long>(kernel.drain_calls));
  std::printf("%-34s %14llu\n", "drain-site pages covered",
              static_cast<unsigned long long>(kernel.drain_pages));
  std::printf("%-34s %14llu\n", "fault-path mprotect calls (1:1)",
              static_cast<unsigned long long>(kernel.fault_calls));
  std::printf("%-34s %14llu\n", "total mprotect calls",
              static_cast<unsigned long long>(kernel.total_mprotect));
  std::printf("pages per drain syscall: %.1f\n", coalesce);

  // Section 3: SOR context row (fault-path singles dilute the total here;
  // the drain-site numbers above are the gated measurement).
  Config sor_cfg;
  sor_cfg.protocol = ProtocolVariant::kTwoLevel;
  sor_cfg.nodes = 8;
  sor_cfg.procs_per_node = 4;
  sor_cfg.cost.scale = 1.0;
  const AppRunResult sor = RunApp(AppKind::kSor, sor_cfg, opt.size_class);
  const unsigned long long sor_calls =
      static_cast<unsigned long long>(sor.report.total.Get(Counter::kMprotectCalls));
  std::printf("\nSOR 32:4 context: %llu mprotect calls%s\n", sor_calls,
              sor.verified ? "" : "  (UNVERIFIED)");

  const bool all_verified = kernel.verified && kernel.trace_complete && sor.verified;
  const bool meets_goal = coalesce >= 4.0;
  std::printf("\n%s: %.1f pages per drain-site syscall (goal >= 4), %s\n",
              (all_verified && meets_goal) ? "PASS" : "FAIL", coalesce,
              all_verified ? "all runs verified" : "VERIFICATION FAILED");

  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.json_path.c_str());
    return 1;
  }
  std::string replay_rows;
  for (const ReplayRow& r : replay) {
    char row[192];
    std::snprintf(row, sizeof(row),
                  "    {\"pages\": %d, \"batched_ns_per_page\": %.1f, "
                  "\"per_page_ns_per_page\": %.1f, \"batched_syscalls\": %llu}",
                  r.pages, r.batched_ns_per_page, r.unbatched_ns_per_page,
                  static_cast<unsigned long long>(r.batched_syscalls_per_drain));
    if (!replay_rows.empty()) {
      replay_rows += ",\n";
    }
    replay_rows += row;
  }
  std::fprintf(
      f,
      "{\n  \"kernel\": {\"procs\": 32, \"ppn\": 4, \"pages\": %d, \"rounds\": %d,\n"
      "    \"drain_calls_batched\": %llu, \"drain_pages_batched\": %llu,\n"
      "    \"fault_calls_batched\": %llu, \"total_mprotect_batched\": %llu,\n"
      "    \"pages_per_drain_syscall\": %.2f},\n"
      "  \"sor_context\": {\"mprotect_calls_batched\": %llu},\n"
      "  \"drain_replay\": [\n%s\n  ],\n"
      "  \"all_verified\": %s,\n  \"meets_4x_goal\": %s\n}\n",
      kKernelPages, kKernelRounds, static_cast<unsigned long long>(kernel.drain_calls),
      static_cast<unsigned long long>(kernel.drain_pages),
      static_cast<unsigned long long>(kernel.fault_calls),
      static_cast<unsigned long long>(kernel.total_mprotect), coalesce, sor_calls,
      replay_rows.c_str(), all_verified ? "true" : "false", meets_goal ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
  return (all_verified && meets_goal) ? 0 : 1;
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  const auto opt = cashmere::bench::BenchOptions::Parse(argc, argv, "BENCH_protect.json");
  return cashmere::RunBench(opt);
}
