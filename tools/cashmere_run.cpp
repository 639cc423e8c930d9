// cashmere_run: command-line driver for the benchmark suite.
//
//   cashmere_run --app SOR --protocol 2L --procs 32 --ppn 4 [--size bench]
//                [--home-opt] [--interrupts] [--no-first-touch]
//                [--cost-scale auto|<float>] [--verbose]
//
// Runs one application under one configuration, verifies it against the
// sequential reference, and prints the Table-3-style statistics, the
// Figure-6 time breakdown and the speedup.
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
               "          [--dir replicated|sharded] [--cost-scale auto|<float>]\n"
               "          [--transport inproc|shm] [--list]\n"
               "  (CSM_TRANSPORT=inproc|shm sets the default backend; the flag\n"
               "   wins. shm under tools/cashmere_launch spans OS processes.)\n",
               argv0, names.c_str());
  std::exit(2);
}

bool ParseProtocol(const char* name, ProtocolVariant* out) {
  const ProtocolVariant all[] = {
      ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown,
      ProtocolVariant::kTwoLevelGlobalLock, ProtocolVariant::kOneLevelDiff,
      ProtocolVariant::kOneLevelWriteDouble};
  for (const ProtocolVariant v : all) {
    if (std::strcmp(ProtocolVariantName(v), name) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
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

  // Environment default first, so cashmere_launch can select the shm
  // backend without rewriting the lead's command line; an explicit
  // --transport flag overrides it below.
  if (!ApplyTransportEnv(&cfg)) {
    std::fprintf(stderr, "unknown CSM_TRANSPORT '%s' (want inproc|shm)\n",
                 std::getenv("CSM_TRANSPORT"));
    return 2;
  }

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
      if (!ParseProtocol(next(), &cfg.protocol)) {
        Usage(argv[0]);
      }
    } else if (arg == "--procs") {
      procs = std::atoi(next());
    } else if (arg == "--ppn") {
      ppn = std::atoi(next());
    } else if (arg == "--size") {
      const std::string s = next();
      size_class = s == "test" ? kSizeTest : s == "large" ? kSizeLarge : kSizeBench;
    } else if (arg == "--home-opt") {
      cfg.home_opt = true;
    } else if (arg == "--interrupts") {
      cfg.delivery = DeliveryMode::kInterrupt;
    } else if (arg == "--no-first-touch") {
      cfg.first_touch = false;
    } else if (arg == "--no-async") {
      cfg.async.release = false;
    } else if (arg == "--dir") {
      const std::string s = next();
      if (s == "sharded") {
        cfg.dir.mode = DirMode::kSharded;
      } else if (s == "replicated") {
        cfg.dir.mode = DirMode::kReplicated;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--cost-scale") {
      const std::string s = next();
      cfg.cost.scale = s == "auto" ? 0.0 : std::atof(s.c_str());
    } else if (arg == "--transport") {
      if (!ParseTransportKind(next(), &cfg.mc.transport)) {
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
  if (ppn <= 0 || procs <= 0 || procs % ppn != 0 || procs / ppn > kMaxNodes ||
      ppn > kMaxProcsPerNode) {
    std::fprintf(stderr, "invalid cluster shape %d:%d (max %d nodes x %d processors)\n",
                 procs, ppn, kMaxNodes, kMaxProcsPerNode);
    return 2;
  }
  cfg.nodes = procs / ppn;
  cfg.procs_per_node = ppn;

  const AppRunResult r = RunApp(kind, cfg, size_class);
  std::printf("%s on %s  [%s]\n", AppName(kind), cfg.Describe().c_str(),
              r.verified ? "VERIFIED" : "VERIFICATION FAILED");
  std::printf("  sequential (Alpha-equivalent): %.4f s\n", r.seq_alpha_seconds);
  std::printf("  parallel (virtual):            %.4f s\n", r.report.ExecTimeSec());
  std::printf("  speedup:                       %.2f\n", r.speedup);
  if (cfg.mc.transport == McTransportKind::kShm) {
    std::printf("  shm wire time (wall clock):    %.4f s\n",
                static_cast<double>(r.wire_ns) / 1e9);
    std::printf("  shm peer segments:             %s\n",
                r.transport_verified ? "verified" : "CHECKSUM MISMATCH");
  }
  std::printf("\n");
  std::printf("%s", r.report.ToString().c_str());
  return r.verified ? 0 : 1;
}
