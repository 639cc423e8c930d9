#include "cashmere/apps/app.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

#include "cashmere/common/calibration.hpp"
#include "cashmere/common/logging.hpp"

namespace cashmere {

namespace {

// Filled by App::Register during static initialization (each app's .cpp
// holds a CASHMERE_REGISTER_APP object). Function-local static so the table
// exists before the first cross-TU registration call.
struct AppRegistry {
  std::array<App::Factory, kNumApps> factories{};
  std::array<const char*, kNumApps> names{};
};

AppRegistry& Registry() {
  static AppRegistry registry;
  return registry;
}

}  // namespace

bool App::Register(AppKind kind, const char* name, Factory factory) {
  AppRegistry& r = Registry();
  const int k = static_cast<int>(kind);
  CSM_CHECK(k >= 0 && k < kNumApps);
  CSM_CHECK(r.factories[static_cast<std::size_t>(k)] == nullptr);
  r.factories[static_cast<std::size_t>(k)] = factory;
  r.names[static_cast<std::size_t>(k)] = name;
  return true;
}

std::unique_ptr<IApp> App::Create(const std::string& name, int size_class) {
  AppKind kind;
  if (!Lookup(name, &kind)) {
    return nullptr;
  }
  return MakeApp(kind, size_class);
}

std::vector<std::string> App::Names() {
  std::vector<std::string> names;
  names.reserve(kNumApps);
  for (int k = 0; k < kNumApps; ++k) {
    const char* name = Registry().names[static_cast<std::size_t>(k)];
    if (name != nullptr) {
      names.emplace_back(name);
    }
  }
  return names;
}

bool App::Lookup(const std::string& name, AppKind* kind) {
  for (int k = 0; k < kNumApps; ++k) {
    const char* n = Registry().names[static_cast<std::size_t>(k)];
    if (n != nullptr && name == n) {
      *kind = static_cast<AppKind>(k);
      return true;
    }
  }
  return false;
}

const char* AppName(AppKind kind) {
  const char* name = Registry().names[static_cast<std::size_t>(kind)];
  return name != nullptr ? name : "?";
}

bool ParseSizeClass(const char* name, int* out) {
  static constexpr const char* kNames[] = {"test", "bench", "large"};
  static_assert(kSizeTest == 0 && kSizeBench == 1 && kSizeLarge == 2);
  for (int c = 0; c < 3; ++c) {
    if (std::strcmp(kNames[c], name) == 0) {
      *out = c;
      return true;
    }
  }
  return false;
}

std::unique_ptr<IApp> MakeApp(AppKind kind, int size_class) {
  const App::Factory factory = Registry().factories[static_cast<std::size_t>(kind)];
  CSM_CHECK(factory != nullptr);
  return factory(size_class);
}

namespace {

struct Baseline {
  double host_seconds;
  double alpha_seconds;
  double checksum;
};

std::mutex g_baseline_mutex;
std::map<std::pair<int, int>, Baseline>& BaselineCache() {
  static auto* cache = new std::map<std::pair<int, int>, Baseline>();
  return *cache;
}

}  // namespace

void SequentialBaseline(AppKind kind, int size_class, double* host_seconds,
                        double* alpha_seconds, double* checksum) {
  std::lock_guard<std::mutex> guard(g_baseline_mutex);
  const auto key = std::make_pair(static_cast<int>(kind), size_class);
  auto it = BaselineCache().find(key);
  if (it == BaselineCache().end()) {
    auto app = MakeApp(kind, size_class);
    // Repeat and take the minimum: the references run for milliseconds, so
    // a single sample is scheduling-noise dominated.
    double best = 1e30;
    double sum = 0.0;
    double accumulated = 0.0;
    for (int rep = 0; rep < 7 && (rep < 3 || accumulated < 0.25); ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      sum = app->RunSequential();
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      best = std::min(best, secs);
      accumulated += secs;
    }
    Baseline b;
    b.host_seconds = best;
    b.alpha_seconds = b.host_seconds * HostToAlphaTimeScale();
    b.checksum = sum;
    it = BaselineCache().emplace(key, b).first;
  }
  if (host_seconds != nullptr) {
    *host_seconds = it->second.host_seconds;
  }
  if (alpha_seconds != nullptr) {
    *alpha_seconds = it->second.alpha_seconds;
  }
  if (checksum != nullptr) {
    *checksum = it->second.checksum;
  }
}

double AutoCostScale(AppKind kind, int size_class) {
  // Cost scaling for scaled-down problems (see DESIGN.md): compute shrinks
  // by s = our/paper sequential time; communication shrinks by v =
  // our/paper data moved (ours measured once per app at the paper's
  // 32-processor 2L configuration, the paper's from Table 3's Data row).
  // Scaling every modeled cost by s/v restores the paper's
  // compute-to-communication ratio while preserving protocol rankings.
  static std::mutex mutex;
  static auto* cache = new std::map<std::pair<int, int>, double>();
  {
    std::lock_guard<std::mutex> guard(mutex);
    auto it = cache->find({static_cast<int>(kind), size_class});
    if (it != cache->end()) {
      return it->second;
    }
  }
  auto app = MakeApp(kind, size_class);
  double seq_alpha = 0.0;
  SequentialBaseline(kind, size_class, nullptr, &seq_alpha, nullptr);
  Config probe;
  probe.protocol = ProtocolVariant::kTwoLevel;
  probe.nodes = 8;
  probe.procs_per_node = 4;
  probe.cost.scale = 1.0;  // counters are cost-independent
  const AppRunResult r = RunApp(kind, probe, size_class);
  const double our_mbytes =
      static_cast<double>(r.report.total.Get(Counter::kDataBytes)) / (1024.0 * 1024.0);
  const double s = seq_alpha / app->PaperSeqSeconds();
  const double v = our_mbytes > 0 ? our_mbytes / app->PaperDataMbytes32() : 1.0;
  const double scale = std::clamp(s / v, 1e-4, 1.0);
  std::lock_guard<std::mutex> guard(mutex);
  (*cache)[{static_cast<int>(kind), size_class}] = scale;
  return scale;
}

AppRunResult RunApp(AppKind kind, Config cfg, int size_class) {
  auto app = MakeApp(kind, size_class);
  cfg.heap_bytes =
      ((app->HeapBytes() + app->HeapBytes() / 4 + 64 * 1024 + kPageBytes - 1) / kPageBytes) *
      kPageBytes;
  if (cfg.cost.scale == 0.0) {
    cfg.cost.scale = AutoCostScale(kind, size_class);
  }
  AppRunResult result;
  result.kind = kind;
  SequentialBaseline(kind, size_class, &result.seq_host_seconds, &result.seq_alpha_seconds,
                     &result.sequential_checksum);
  {
    Runtime rt(cfg, app->Sync());
    result.parallel_checksum = app->RunParallel(rt);
    result.report = rt.report();
    result.trace = rt.TakeTraceLog();
  }
  // Oversubscription-dilation correction (see VirtualClock::user_host_ns):
  // on a host with fewer cores than emulated processors, measured per-thread
  // CPU time inflates with cache pollution and context switches. The suite's
  // applications perform (essentially) the sequential amount of total user
  // compute, so re-run with the user-time scale deflated to make the summed
  // user compute match the sequential baseline.
  const double dilation = result.seq_host_seconds > 0
                              ? static_cast<double>(result.report.user_host_ns) / 1e9 /
                                    result.seq_host_seconds
                              : 1.0;
  if (dilation > 1.2 || dilation < 0.8) {
    const double base_scale =
        cfg.cost.time_scale > 0 ? cfg.cost.time_scale : HostToAlphaTimeScale();
    Config corrected = cfg;
    corrected.cost.time_scale =
        base_scale / std::clamp(dilation, 0.25, 100.0);
    auto app2 = MakeApp(kind, size_class);
    Runtime rt(corrected, app2->Sync());
    result.parallel_checksum = app2->RunParallel(rt);
    result.report = rt.report();
    result.trace = rt.TakeTraceLog();  // streams of the run that counts
  }
  result.cfg = cfg;
  const double tol = app->Tolerance();
  const double diff = std::fabs(result.parallel_checksum - result.sequential_checksum);
  const double ref = std::fabs(result.sequential_checksum);
  result.verified = tol == 0.0 ? diff == 0.0 : diff <= tol * (ref > 1.0 ? ref : 1.0);
  const double exec_s = result.report.ExecTimeSec();
  result.speedup = exec_s > 0 ? result.seq_alpha_seconds / exec_s : 0.0;
  return result;
}

}  // namespace cashmere
