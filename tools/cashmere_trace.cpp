// cashmere_trace: run one application with structured tracing enabled,
// replay the merged event stream through the invariant checker, and
// optionally export it as Chrome trace_event JSON.
//
//   cashmere_trace --app SOR [--protocol 2L] [--procs 32] [--ppn 4]
//                  [--size test|bench|large] [--ring-events N] [--no-async]
//                  [--json trace.json] [--no-check]
//
// Exits 0 iff the run verified against the sequential reference and the
// invariant checker found no issues; the checker is on by default so CI can
// pipe any deterministic app through it.
//
// The `contention` subcommand runs the same way but instead derives the
// top-N contended pages and locks from the event stream:
//
//   cashmere_trace contention --app SOR [--top 10] [...run options...]
//
// Page contention ranks by protocol traffic per page (faults + transfers +
// diffs + write notices); a per-page column counts the page's directory
// updates (kDirUpdate events), each one ordered broadcast to every unit's
// replica. Lock contention ranks by acquire count and the number of
// distinct acquiring processors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cashmere/apps/app.hpp"
#include "cashmere/common/trace_check.hpp"

namespace {

using namespace cashmere;

[[noreturn]] void Usage(const char* argv0) {
  std::string names;
  for (const std::string& name : App::Names()) {
    if (!names.empty()) {
      names += '|';
    }
    names += name;
  }
  std::fprintf(stderr,
               "usage: %s [contention] --app <%s>\n"
               "          [--protocol 2L|2LS|2L-lock|1LD|1L] [--procs N] [--ppn N]\n"
               "          [--size test|bench|large] [--ring-events N] [--no-async]\n"
               "          [--json <file>] [--no-check] [--top N]\n",
               argv0, names.c_str());
  std::exit(2);
}

// --- contention derivation ------------------------------------------------

struct PageContention {
  std::uint32_t page = 0;
  std::uint64_t faults = 0;     // kFaultBegin
  std::uint64_t transfers = 0;  // kPageCopy
  std::uint64_t diffs = 0;      // kDiffApplyIncoming + kDiffApplyOutgoing
  std::uint64_t notices = 0;    // kWnPost
  std::uint64_t dir_updates = 0;  // kDirUpdate
  std::uint64_t procs = 0;      // distinct rows that faulted on the page
  std::uint64_t total() const { return faults + transfers + diffs + notices; }
};

struct LockContention {
  std::uint32_t id = 0;
  std::uint64_t acquires = 0;
  std::uint64_t procs = 0;         // distinct acquiring processors
  VirtTime hold_ns = 0;            // sum of acquire->release spans per proc
};

void ReportContention(const std::vector<TraceEvent>& merged, int top) {
  std::map<std::uint32_t, PageContention> pages;
  std::map<std::uint32_t, std::map<std::uint16_t, bool>> page_proc_set;
  std::map<std::uint32_t, LockContention> locks;
  std::map<std::uint32_t, std::map<std::uint16_t, bool>> lock_proc_set;
  // Per (proc, lock) open acquire vt, for hold-span sums.
  std::map<std::uint64_t, VirtTime> open_acquire;

  for (const TraceEvent& e : merged) {
    const auto kind = static_cast<EventKind>(e.kind);
    switch (kind) {
      case EventKind::kFaultBegin:
        if (e.page != kNoTracePage) {
          PageContention& pc = pages[e.page];
          pc.page = e.page;
          ++pc.faults;
          page_proc_set[e.page][e.proc] = true;
        }
        break;
      case EventKind::kPageCopy:
        if (e.page != kNoTracePage) {
          pages[e.page].page = e.page;
          ++pages[e.page].transfers;
        }
        break;
      case EventKind::kDiffApplyIncoming:
      case EventKind::kDiffApplyOutgoing:
        if (e.page != kNoTracePage) {
          pages[e.page].page = e.page;
          ++pages[e.page].diffs;
        }
        break;
      case EventKind::kWnPost:
        if (e.page != kNoTracePage) {
          pages[e.page].page = e.page;
          ++pages[e.page].notices;
        }
        break;
      case EventKind::kDirUpdate:
        if (e.page != kNoTracePage) {
          pages[e.page].page = e.page;
          ++pages[e.page].dir_updates;
        }
        break;
      case EventKind::kLockAcquire: {
        LockContention& lc = locks[e.a0];
        lc.id = e.a0;
        ++lc.acquires;
        lock_proc_set[e.a0][e.proc] = true;
        open_acquire[(static_cast<std::uint64_t>(e.proc) << 32) | e.a0] = e.vt;
        break;
      }
      case EventKind::kLockRelease: {
        const std::uint64_t key = (static_cast<std::uint64_t>(e.proc) << 32) | e.a0;
        auto it = open_acquire.find(key);
        if (it != open_acquire.end() && e.vt >= it->second) {
          locks[e.a0].hold_ns += e.vt - it->second;
          open_acquire.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  for (auto& [page, pc] : pages) {
    pc.procs = page_proc_set[page].size();
  }
  for (auto& [id, lc] : locks) {
    lc.procs = lock_proc_set[id].size();
  }

  std::vector<PageContention> page_rank;
  page_rank.reserve(pages.size());
  for (const auto& [page, pc] : pages) {
    page_rank.push_back(pc);
  }
  std::sort(page_rank.begin(), page_rank.end(),
            [](const PageContention& a, const PageContention& b) {
              return a.total() != b.total() ? a.total() > b.total() : a.page < b.page;
            });
  std::vector<LockContention> lock_rank;
  lock_rank.reserve(locks.size());
  for (const auto& [id, lc] : locks) {
    lock_rank.push_back(lc);
  }
  std::sort(lock_rank.begin(), lock_rank.end(),
            [](const LockContention& a, const LockContention& b) {
              return a.acquires != b.acquires ? a.acquires > b.acquires : a.id < b.id;
            });

  std::printf("\ntop %d contended pages (of %zu with traffic):\n", top, page_rank.size());
  std::printf("  %-8s %8s %8s %8s %8s %8s %8s %8s\n", "page", "total", "faults",
              "copies", "diffs", "notices", "dirUpd", "procs");
  for (std::size_t i = 0; i < page_rank.size() && i < static_cast<std::size_t>(top);
       ++i) {
    const PageContention& pc = page_rank[i];
    std::printf("  %-8u %8llu %8llu %8llu %8llu %8llu %8llu %8llu\n", pc.page,
                (unsigned long long)pc.total(), (unsigned long long)pc.faults,
                (unsigned long long)pc.transfers, (unsigned long long)pc.diffs,
                (unsigned long long)pc.notices, (unsigned long long)pc.dir_updates,
                (unsigned long long)pc.procs);
  }
  std::printf("\ntop %d contended locks (of %zu acquired):\n", top, lock_rank.size());
  std::printf("  %-8s %8s %8s %12s\n", "lock", "acquires", "procs", "hold(ms)");
  for (std::size_t i = 0; i < lock_rank.size() && i < static_cast<std::size_t>(top);
       ++i) {
    const LockContention& lc = lock_rank[i];
    std::printf("  %-8u %8llu %8llu %12.3f\n", lc.id, (unsigned long long)lc.acquires,
                (unsigned long long)lc.procs, static_cast<double>(lc.hold_ns) / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  AppKind kind = AppKind::kSor;
  bool have_app = false;
  bool check = true;
  bool contention = false;
  int top = 10;
  const char* json_path = nullptr;
  Config cfg;
  cfg.cost.scale = 1.0;  // counters, not modeled time, are what tracing reads
  cfg.trace.enabled = true;
  int procs = 32;
  int ppn = 4;
  int size_class = kSizeTest;

  int first_arg = 1;
  if (argc > 1 && std::strcmp(argv[1], "contention") == 0) {
    contention = true;
    first_arg = 2;
  }
  for (int i = first_arg; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--app") {
      if (!App::Lookup(next(), &kind)) {
        Usage(argv[0]);
      }
      have_app = true;
    } else if (arg == "--protocol") {
      if (!ParseProtocolVariant(next(), &cfg.protocol)) {
        Usage(argv[0]);
      }
    } else if (arg == "--procs") {
      procs = std::atoi(next());
    } else if (arg == "--ppn") {
      ppn = std::atoi(next());
    } else if (arg == "--size") {
      if (!ParseSizeClass(next(), &size_class)) {
        Usage(argv[0]);
      }
    } else if (arg == "--ring-events") {
      cfg.trace.ring_events = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--no-check") {
      check = false;
    } else if (arg == "--no-async") {
      cfg.async.release = false;
    } else if (arg == "--top") {
      top = std::atoi(next());
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_app) {
    Usage(argv[0]);
  }
  if (ppn <= 0 || procs <= 0 || procs % ppn != 0 || procs / ppn > kMaxNodes ||
      ppn > kMaxProcsPerNode) {
    std::fprintf(stderr, "invalid cluster shape %d:%d (max %d nodes x %d processors)\n",
                 procs, ppn, kMaxNodes, kMaxProcsPerNode);
    return 2;
  }
  cfg.nodes = procs / ppn;
  cfg.procs_per_node = ppn;

  const AppRunResult r = RunApp(kind, cfg, size_class);
  std::printf("%s on %s  [%s]\n", AppName(kind), r.cfg.Describe().c_str(),
              r.verified ? "VERIFIED" : "VERIFICATION FAILED");
  if (!r.trace) {
    std::fprintf(stderr, "cashmere_trace: run produced no trace log\n");
    return 1;
  }
  const std::vector<TraceEvent> merged = r.trace->Merged();
  std::printf("  events: %llu appended, %llu retained, %llu dropped\n",
              (unsigned long long)r.trace->TotalEvents(),
              (unsigned long long)merged.size(),
              (unsigned long long)r.trace->TotalDropped());

  if (contention) {
    ReportContention(merged, top);
    return r.verified ? 0 : 1;
  }
  bool ok = r.verified;
  if (check) {
    const TraceCheckResult res = CheckTrace(merged, r.cfg, r.trace->TotalDropped());
    std::printf("%s", res.ToString().c_str());
    ok = ok && res.ok;
  }
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cashmere_trace: cannot open %s\n", json_path);
      return 1;
    }
    WriteChromeTrace(merged, r.cfg, f);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  }
  return ok ? 0 : 1;
}
