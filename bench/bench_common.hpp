// Shared helpers for the paper-reproduction benchmark harnesses: run
// configuration parsing, table formatting, and the standard experiment
// driver (app x protocol x cluster shape).
#ifndef CASHMERE_BENCH_BENCH_COMMON_HPP_
#define CASHMERE_BENCH_BENCH_COMMON_HPP_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cashmere/apps/app.hpp"

namespace cashmere::bench {

// Command-line knobs shared by the table generators. Parse rejects an
// unknown flag or app name with usage and exit 2, so a typo never runs the
// wrong sweep.
struct BenchOptions {
  int size_class = kSizeBench;
  bool full = false;  // full sweep vs the quick default
  std::string csv_path;  // when set, also append machine-readable rows
  std::string json_path;  // the JSON report, for benches that write one
  std::vector<AppKind> apps;

  // `default_json` is null for benches without a JSON report; for the
  // others it is the report path that --json overrides.
  static BenchOptions Parse(int argc, char** argv, const char* default_json = nullptr) {
    BenchOptions opt;
    opt.apps.reserve(kNumApps);
    for (int a = 0; a < kNumApps; ++a) {
      opt.apps.push_back(static_cast<AppKind>(a));
    }
    if (default_json != nullptr) {
      opt.json_path = default_json;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          Usage(argv[0], default_json);
        }
        return argv[++i];
      };
      if (arg == "--full") {
        opt.full = true;
        opt.size_class = kSizeLarge;
      } else if (arg == "--small") {
        opt.size_class = kSizeTest;
      } else if (arg == "--csv") {
        opt.csv_path = next();
      } else if (arg == "--json" && default_json != nullptr) {
        opt.json_path = next();
      } else if (arg == "--app") {
        AppKind kind = AppKind::kSor;
        if (!App::Lookup(next(), &kind)) {
          Usage(argv[0], default_json);
        }
        opt.apps.assign(1, kind);
      } else {
        Usage(argv[0], default_json);
      }
    }
    return opt;
  }

  [[noreturn]] static void Usage(const char* argv0, const char* default_json) {
    std::fprintf(stderr, "usage: %s [--small|--full] [--app <name>] [--csv <file>]%s\n", argv0,
                 default_json != nullptr ? " [--json <file>]" : "");
    std::exit(2);
  }
};

// The paper's protocol line-up for Tables 3 / Figures 6-7.
struct ProtocolColumn {
  const char* label;
  ProtocolVariant variant;
  bool home_opt;
};

inline std::vector<ProtocolColumn> PaperProtocols() {
  return {
      {"2L", ProtocolVariant::kTwoLevel, false},
      {"2LS", ProtocolVariant::kTwoLevelShootdown, false},
      {"1LD", ProtocolVariant::kOneLevelDiff, false},
      {"1L", ProtocolVariant::kOneLevelWriteDouble, false},
  };
}

// A Figure 7 cluster configuration "P:ppn".
struct ClusterShape {
  int total;
  int ppn;
  int nodes() const { return total / ppn; }
  std::string Label() const { return std::to_string(total) + ":" + std::to_string(ppn); }
};

inline std::vector<ClusterShape> PaperShapes(bool full) {
  if (full) {
    return {{4, 1}, {4, 4}, {8, 1}, {8, 2}, {8, 4}, {16, 2}, {16, 4}, {24, 3}, {32, 4}};
  }
  return {{4, 1}, {8, 2}, {16, 4}, {32, 4}};
}

inline AppRunResult RunExperiment(AppKind kind, const ProtocolColumn& column,
                                  ClusterShape shape, int size_class) {
  Config cfg;
  cfg.protocol = column.variant;
  cfg.home_opt = column.home_opt;
  cfg.nodes = shape.nodes();
  cfg.procs_per_node = shape.ppn;
  cfg.cost.scale = 0.0;  // auto: preserve the paper's compute/comm ratio
  return RunApp(kind, cfg, size_class);
}

// Appends one experiment row to a CSV file (header written when the file
// is empty/new): app, protocol, shape, verification, speedup, then the
// full StatsReport columns.
inline void AppendCsv(const std::string& path, AppKind kind, const char* protocol,
                      const ClusterShape& shape, const AppRunResult& result) {
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  if (std::ftell(f) == 0) {
    std::fprintf(f, "app,protocol,procs,ppn,verified,speedup,seq_alpha_s,%s\n",
                 StatsReport::CsvHeader().c_str());
  }
  std::fprintf(f, "%s,%s,%d,%d,%d,%.4f,%.6f,%s\n", AppName(kind), protocol, shape.total,
               shape.ppn, result.verified ? 1 : 0, result.speedup, result.seq_alpha_seconds,
               result.report.ToCsvRow().c_str());
  std::fclose(f);
}

// Formatting helpers (rows like the paper's tables).
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void PrintHeader(const char* title) {
  std::printf("\n");
  PrintRule(78);
  std::printf("%s\n", title);
  PrintRule(78);
}

inline double Kilo(std::uint64_t n) { return static_cast<double>(n) / 1000.0; }
inline double Mega(std::uint64_t n) { return static_cast<double>(n) / (1024.0 * 1024.0); }

}  // namespace cashmere::bench

#endif  // CASHMERE_BENCH_BENCH_COMMON_HPP_
