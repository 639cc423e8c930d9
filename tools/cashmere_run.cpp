// cashmere_run: command-line driver for the benchmark suite.
//
//   cashmere_run --app SOR --protocol 2L --procs 32 --ppn 4 [--size bench]
//                [--home-opt] [--interrupts] [--no-first-touch]
//                [--cost-scale auto|<positive number>] [--no-async]
//
// Runs one application under one configuration, verifies it against the
// sequential reference, and prints the Table-3-style statistics, the
// Figure-6 time breakdown and the speedup.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cashmere/apps/app.hpp"

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
               "usage: %s --app <%s>\n"
               "          [--protocol 2L|2LS|2L-lock|1LD|1L] [--procs N] [--ppn N]\n"
               "          [--size test|bench|large] [--home-opt] [--interrupts]\n"
               "          [--no-first-touch] [--no-async]\n"
               "          [--cost-scale auto|<positive number>] [--list]\n",
               argv0, names.c_str());
  std::exit(2);
}

// "auto" -> 0 (AutoCostScale: the sequential baseline over the app's pinned
// 32:4 2L data volume); otherwise the whole argument must parse as a
// positive finite number. False on anything else, e.g. "1,0", which atof
// would have read as 0 and silently turned into the auto scale.
bool ParseCostScale(const char* s, double* out) {
  if (std::strcmp(s, "auto") == 0) {
    *out = 0.0;
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  AppKind kind = AppKind::kSor;
  bool have_app = false;
  Config cfg;
  cfg.cost.scale = 0.0;  // auto
  int procs = 32;
  int ppn = 4;
  int size_class = kSizeBench;

  for (int i = 1; i < argc; ++i) {
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
      if (!ParsePositiveInt(next(), &procs)) {
        Usage(argv[0]);
      }
    } else if (arg == "--ppn") {
      if (!ParsePositiveInt(next(), &ppn)) {
        Usage(argv[0]);
      }
    } else if (arg == "--size") {
      if (!ParseSizeClass(next(), &size_class)) {
        Usage(argv[0]);
      }
    } else if (arg == "--home-opt") {
      cfg.home_opt = true;
    } else if (arg == "--interrupts") {
      cfg.delivery = DeliveryMode::kInterrupt;
    } else if (arg == "--no-first-touch") {
      cfg.first_touch = false;
    } else if (arg == "--no-async") {
      cfg.async.release = false;
    } else if (arg == "--cost-scale") {
      if (!ParseCostScale(next(), &cfg.cost.scale)) {
        Usage(argv[0]);
      }
    } else if (arg == "--list") {
      for (const std::string& name : App::Names()) {
        auto app = App::Create(name, size_class);
        std::printf("%-8s paper: %-22s ours: %s\n", app->name(), app->PaperProblemSize(),
                    app->ProblemSize().c_str());
      }
      return 0;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_app) {
    Usage(argv[0]);
  }
  if (!SetClusterShape(procs, ppn, &cfg)) {
    return 2;
  }

  const AppRunResult r = RunApp(kind, cfg, size_class);
  // r.cfg, not cfg: RunApp sizes the heap per app.
  std::printf("%s on %s  [%s]\n", AppName(kind), r.cfg.Describe().c_str(),
              r.verified ? "VERIFIED" : "VERIFICATION FAILED");
  std::printf("  sequential (Alpha-equivalent): %.4f s\n", r.seq_alpha_seconds);
  std::printf("  parallel (virtual):            %.4f s\n", r.report.ExecTimeSec());
  std::printf("  speedup:                       %.2f\n", r.speedup);
  std::printf("\n");
  std::printf("%s", r.report.ToString().c_str());
  return r.verified ? 0 : 1;
}
