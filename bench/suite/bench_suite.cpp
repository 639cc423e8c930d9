// bench_suite: one pass of the repository benchmark (see README.md).
//
//   bench_suite --protocol 2L --size bench --time-scale 74.1
//               --app SOR=2.37e-4 --app LU=2.36e-2 ... [--trace-out spans.json]
//   bench_suite --calibrate --size bench --app SOR --app LU ...
//
// A pass pays the set-up every cashmere_run invocation pays (host
// calibration, then each app's sequential baseline and cost probe), then
// runs each app once through RunApp, in the order given, with the pinned
// cost scales. It prints one JSON object on stdout. run.py spawns one such
// process per pass and aggregates them; nothing here is timed from inside
// the library: every layer number comes from timing public calls, from the
// Stats report, or from the TraceLog of a traced run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "cashmere/apps/app.hpp"
#include "cashmere/common/calibration.hpp"

namespace {

using namespace cashmere;
using Clock = std::chrono::steady_clock;

struct AppSpec {
  AppKind kind;
  double cost_scale;
};

struct Options {
  ProtocolVariant protocol = ProtocolVariant::kTwoLevel;
  int size_class = kSizeBench;
  double time_scale = 0.0;
  std::vector<AppSpec> apps;
  std::string trace_out;  // non-empty: traced pass, spans written here
  bool calibrate = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --protocol 2L|2LS|2L-lock|1LD|1L --size test|bench|large\n"
               "          --time-scale <f> --app <name>=<cost scale> ... [--trace-out <path>]\n"
               "       %s --calibrate --size test|bench|large --app <name> ...\n",
               argv0, argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--protocol") {
      const std::string name = next();
      bool found = false;
      for (int v = 0; v <= static_cast<int>(ProtocolVariant::kOneLevelWriteDouble); ++v) {
        if (name == ProtocolVariantName(static_cast<ProtocolVariant>(v))) {
          opt.protocol = static_cast<ProtocolVariant>(v);
          found = true;
        }
      }
      if (!found) {
        Usage(argv[0]);
      }
    } else if (arg == "--size") {
      const std::string s = next();
      if (s != "test" && s != "bench" && s != "large") {
        Usage(argv[0]);
      }
      opt.size_class = s == "test" ? kSizeTest : s == "large" ? kSizeLarge : kSizeBench;
    } else if (arg == "--time-scale") {
      opt.time_scale = std::atof(next().c_str());
    } else if (arg == "--app") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      AppSpec app{};
      if (!App::Lookup(spec.substr(0, eq), &app.kind)) {
        Usage(argv[0]);
      }
      app.cost_scale = eq == std::string::npos ? 0.0 : std::atof(spec.c_str() + eq + 1);
      opt.apps.push_back(app);
    } else if (arg == "--trace-out") {
      opt.trace_out = next();
    } else if (arg == "--calibrate") {
      opt.calibrate = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (opt.apps.empty()) {
    Usage(argv[0]);
  }
  if (!opt.calibrate) {
    // Pinned constants are the point of a pass: an unset scale would fall
    // back to this process's own calibration and its noise.
    for (const AppSpec& app : opt.apps) {
      if (!(app.cost_scale > 0.0)) {
        Usage(argv[0]);
      }
    }
    if (!(opt.time_scale > 0.0)) {
      Usage(argv[0]);
    }
  }
  return opt;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// The suite's own spans (set-up phases, each RunApp, each run's busy
// interval), written as Chrome-trace JSON by the traced pass.
struct Span {
  std::string name;
  double start_us;
  double dur_us;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}
  void Add(const std::string& name, Clock::time_point a, Clock::time_point b) {
    spans_.push_back({name, Us(a), Us(b) - Us(a)});
  }
  void AddHostNs(const std::string& name, std::uint64_t a_ns, std::uint64_t b_ns) {
    const double origin_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(origin_.time_since_epoch())
            .count());
    spans_.push_back({name, (static_cast<double>(a_ns) - origin_ns) / 1e3,
                      static_cast<double>(b_ns - a_ns) / 1e3});
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(f,
                   "%s\n  {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"%s\",\"ts\":%.3f,"
                   "\"dur\":%.3f}",
                   i == 0 ? "" : ",", spans_[i].name.c_str(), spans_[i].start_us,
                   spans_[i].dur_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double Us(Clock::time_point t) const { return Seconds(origin_, t) * 1e6; }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Host-time latency samples (microseconds) for one layer, pooled over the
// pass's apps.
using Samples = std::vector<double>;

struct TraceLatencies {
  Samples fault_us;        // FaultBegin -> FaultEnd, same processor
  Samples fetch_rtt_us;    // ReqSend -> ReqDone, same flow id
  Samples coh_lag_us;      // CohPublish -> CohApply, same (unit, sequence)
  Samples barrier_wait_us; // BarrierArrive -> BarrierDepart, same processor
  Samples lock_hold_us;    // LockAcquire -> LockRelease, same processor
};

// Pairs begin/end events of one run's merged stream. Per-processor order is
// preserved by Merged(), so same-processor pairs match in one pass; keyed
// pairs (flows, log records) cross processors and match through a map.
// Returns the host-time span [first, last] event of the run.
std::pair<std::uint64_t, std::uint64_t> CollectLatencies(const std::vector<TraceEvent>& events,
                                                         TraceLatencies* out) {
  std::uint64_t first = ~0ull;
  std::uint64_t last = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> req_send;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> coh_publish;
  for (const TraceEvent& e : events) {
    first = std::min(first, e.host_ns);
    last = std::max(last, e.host_ns);
    if (static_cast<EventKind>(e.kind) == EventKind::kReqSend) {
      req_send[e.a1] = e.host_ns;
    } else if (static_cast<EventKind>(e.kind) == EventKind::kCohPublish) {
      coh_publish[{e.a0, e.a1}] = e.host_ns;
    }
  }
  const auto us = [](std::uint64_t a, std::uint64_t b) {
    return b >= a ? static_cast<double>(b - a) / 1e3 : 0.0;
  };
  std::unordered_map<std::uint16_t, std::vector<std::uint64_t>> fault_open;
  std::unordered_map<std::uint16_t, std::uint64_t> barrier_open;
  std::map<std::pair<std::uint16_t, std::uint32_t>, std::uint64_t> lock_open;
  for (const TraceEvent& e : events) {
    switch (static_cast<EventKind>(e.kind)) {
      case EventKind::kFaultBegin:
        fault_open[e.proc].push_back(e.host_ns);
        break;
      case EventKind::kFaultEnd: {
        auto& open = fault_open[e.proc];
        if (!open.empty()) {
          out->fault_us.push_back(us(open.back(), e.host_ns));
          open.pop_back();
        }
        break;
      }
      case EventKind::kReqDone: {
        const auto it = req_send.find(e.a1);
        if (it != req_send.end()) {
          out->fetch_rtt_us.push_back(us(it->second, e.host_ns));
        }
        break;
      }
      case EventKind::kCohApply: {
        const auto it = coh_publish.find({e.a0, e.a1});
        if (it != coh_publish.end()) {
          out->coh_lag_us.push_back(us(it->second, e.host_ns));
        }
        break;
      }
      case EventKind::kBarrierArrive:
        barrier_open[e.proc] = e.host_ns;
        break;
      case EventKind::kBarrierDepart: {
        const auto it = barrier_open.find(e.proc);
        if (it != barrier_open.end()) {
          out->barrier_wait_us.push_back(us(it->second, e.host_ns));
          barrier_open.erase(it);
        }
        break;
      }
      case EventKind::kLockAcquire:
        lock_open[{e.proc, e.a0}] = e.host_ns;
        break;
      case EventKind::kLockRelease: {
        const auto it = lock_open.find({e.proc, e.a0});
        if (it != lock_open.end()) {
          out->lock_hold_us.push_back(us(it->second, e.host_ns));
          lock_open.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  return {first == ~0ull ? 0 : first, last};
}

// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
double Percentile(Samples s, double pct) {
  if (s.empty()) {
    return 0.0;
  }
  std::sort(s.begin(), s.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(s.size())));
  return s[std::clamp<std::size_t>(rank, 1, s.size()) - 1];
}

// Minimal JSON object writer for the pass record.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) { Raw(key, "\"" + v + "\""); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Latency metrics for one layer: the median and the highest percentile with
// at least ten samples beyond it (p99 from 1000 samples, p90 from 100).
void AddLatency(JsonObject* layers, JsonObject* tail_pct, const std::string& name,
                const Samples& s) {
  const double pct = s.size() >= 1000 ? 99.0 : s.size() >= 100 ? 90.0 : 50.0;
  layers->Num(name + ".p50", Percentile(s, 50.0));
  layers->Num(name + ".tail", Percentile(s, pct));
  layers->Num(name + ".n", static_cast<double>(s.size()));
  tail_pct->Num(name + ".tail", pct);
}

int Calibrate(const Options& opt) {
  JsonObject out;
  out.Num("time_scale", HostToAlphaTimeScale());
  JsonObject scales;
  for (const AppSpec& app : opt.apps) {
    scales.Num(AppName(app.kind), AutoCostScale(app.kind, opt.size_class));
  }
  out.Raw("cost_scale", scales.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int RunPass(const Options& opt) {
  const bool traced = !opt.trace_out.empty();
  const Clock::time_point origin = Clock::now();
  Spans spans(origin);

  // Set-up: what each cashmere_run invocation pays before its first run.
  const Clock::time_point setup_begin = Clock::now();
  const double measured_time_scale = HostToAlphaTimeScale();
  spans.Add("setup:calibrate", setup_begin, Clock::now());
  double seq_baseline_s = 0.0;
  double cost_probe_s = 0.0;
  for (const AppSpec& app : opt.apps) {
    const Clock::time_point t0 = Clock::now();
    SequentialBaseline(app.kind, opt.size_class, nullptr, nullptr, nullptr);
    const Clock::time_point t1 = Clock::now();
    AutoCostScale(app.kind, opt.size_class);
    const Clock::time_point t2 = Clock::now();
    seq_baseline_s += Seconds(t0, t1);
    cost_probe_s += Seconds(t1, t2);
    spans.Add(std::string("setup:seq_baseline:") + AppName(app.kind), t0, t1);
    spans.Add(std::string("setup:cost_probe:") + AppName(app.kind), t1, t2);
  }
  const double setup_s = Seconds(setup_begin, Clock::now());

  // Timed runs.
  Stats counts;
  double log_speedup = 0.0;
  double wall_s = 0.0;
  double dilation_sum = 0.0;
  double busy_ms = 0.0;
  double runtime_run_ms = 0.0;  // RunApp wall split evenly over its Runtime runs
  double vt_s[kNumTimeCategories] = {};
  int failed = 0;
  std::string apps_json;
  TraceLatencies lat;
  const double cpu_begin = ProcessCpuSeconds();
  for (const AppSpec& app : opt.apps) {
    Config cfg;
    cfg.protocol = opt.protocol;
    cfg.nodes = 8;
    cfg.procs_per_node = 4;
    cfg.cost.scale = app.cost_scale;
    cfg.cost.time_scale = opt.time_scale;
    cfg.trace.enabled = traced;
    // The default 16Ki-event rings wrap on the 1LD runs (~22k faults); 64Ki
    // keeps every stream complete.
    cfg.trace.ring_events = 1u << 16;
    const Clock::time_point t0 = Clock::now();
    const AppRunResult r = RunApp(app.kind, cfg, opt.size_class);
    const Clock::time_point t1 = Clock::now();
    const double run_s = Seconds(t0, t1);
    spans.Add(std::string("RunApp:") + AppName(app.kind), t0, t1);

    const double exec_s = r.report.ExecTimeSec();
    const double speedup = exec_s > 0 ? r.seq_host_seconds * opt.time_scale / exec_s : 0.0;
    // RunApp's own rerun rule: the report is the rerun's, whose raw user
    // CPU time is measured the same way, so the ratio shows whether the
    // hidden dilation rerun fired.
    const double dilation = r.seq_host_seconds > 0
                                ? static_cast<double>(r.report.user_host_ns) / 1e9 /
                                      r.seq_host_seconds
                                : 1.0;
    const int runtime_runs = (dilation > 1.2 || dilation < 0.8) ? 2 : 1;
    wall_s += run_s;
    dilation_sum += dilation;
    log_speedup += std::log(speedup > 0 ? speedup : 1e-9);
    counts += r.report.total;
    for (int c = 0; c < kNumTimeCategories; ++c) {
      vt_s[c] += static_cast<double>(r.report.total.time_ns[static_cast<std::size_t>(c)]) /
                 1e9 / cfg.total_procs();
    }
    if (!r.verified) {
      ++failed;
    }
    JsonObject rec;
    rec.Str("app", AppName(app.kind));
    rec.Bool("verified", r.verified);
    rec.Num("runapp_s", run_s);
    rec.Num("virtual_s", exec_s);
    rec.Num("seq_host_s", r.seq_host_seconds);
    rec.Num("speedup", speedup);
    rec.Num("dilation", dilation);
    rec.Num("runtime_runs", runtime_runs);
    if (traced && r.trace != nullptr) {
      const auto [first_ns, last_ns] = CollectLatencies(r.trace->Merged(), &lat);
      const double busy = static_cast<double>(last_ns - first_ns) / 1e6;
      busy_ms += busy;
      runtime_run_ms += run_s * 1e3 / runtime_runs;
      spans.AddHostNs(std::string("busy:") + AppName(app.kind), first_ns, last_ns);
      rec.Num("busy_ms", busy);
      rec.Num("idle_frac", 1.0 - busy / (run_s * 1e3 / runtime_runs));
    }
    apps_json += (apps_json.empty() ? "" : ",") + rec.str();
  }
  const double cpu_s = ProcessCpuSeconds() - cpu_begin;
  const double n_apps = static_cast<double>(opt.apps.size());

  // Per-layer numbers, summed over the pass's apps. Names follow the
  // modules of src/cashmere.
  const auto get = [&counts](Counter c) { return static_cast<double>(counts.Get(c)); };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  JsonObject layers;
  layers.Num("apps.seq_baseline_s", seq_baseline_s);
  layers.Num("apps.cost_probe_s", cost_probe_s);
  layers.Num("apps.dilation", dilation_sum / n_apps);
  layers.Num("runtime.cpu_s", cpu_s);
  layers.Num("vm.read_faults", get(Counter::kReadFaults));
  layers.Num("vm.write_faults", get(Counter::kWriteFaults));
  layers.Num("vm.mprotect_calls", get(Counter::kMprotectCalls));
  layers.Num("vm.pages_per_mprotect",
             ratio(get(Counter::kMprotectCalls) + get(Counter::kMprotectPagesCoalesced),
                   get(Counter::kMprotectCalls)));
  layers.Num("protocol.twins", get(Counter::kTwinCreations));
  layers.Num("protocol.incoming_diffs", get(Counter::kIncomingDiffs));
  layers.Num("protocol.flush_updates", get(Counter::kFlushUpdates));
  layers.Num("protocol.page_flushes", get(Counter::kPageFlushes));
  layers.Num("protocol.diff_runs", get(Counter::kDiffRunsEmitted));
  layers.Num("protocol.diff_run_bytes", get(Counter::kDiffRunBytes));
  layers.Num("protocol.diff_blocks_scanned", get(Counter::kDiffBlocksScanned));
  layers.Num("protocol.diff_skip_ratio",
             ratio(get(Counter::kDiffBlocksSkipped),
                   get(Counter::kDiffBlocksScanned) + get(Counter::kDiffBlocksSkipped)));
  layers.Num("protocol.shootdowns", get(Counter::kShootdowns));
  layers.Num("protocol.excl_transitions", get(Counter::kExclTransitions));
  layers.Num("protocol.home_relocations", get(Counter::kHomeRelocations));
  layers.Num("protocol.coh_publishes", get(Counter::kCohLogPublishes));
  layers.Num("protocol.coh_publish_stalls", get(Counter::kCohLogPublishStalls));
  layers.Num("protocol.coh_gate_waits", get(Counter::kCohGateWaits));
  layers.Num("protocol.release_path_ms", get(Counter::kReleasePathNs) / 1e6);
  layers.Num("protocol.dir_updates", get(Counter::kDirectoryUpdates));
  layers.Num("protocol.write_notices", get(Counter::kWriteNotices));
  layers.Num("msg.page_transfers", get(Counter::kPageTransfers));
  layers.Num("msg.messages", get(Counter::kMessagesHandled));
  layers.Num("msg.polls", get(Counter::kPolls));
  layers.Num("mc.data_mb", get(Counter::kDataBytes) / (1024.0 * 1024.0));
  layers.Num("sync.barriers", get(Counter::kBarriers));
  layers.Num("sync.flag_acquires", get(Counter::kFlagAcquires));
  layers.Num("sync.lock_acquires", get(Counter::kLockAcquires));
  layers.Num("vt.user_s", vt_s[static_cast<int>(TimeCategory::kUser)]);
  layers.Num("vt.protocol_s", vt_s[static_cast<int>(TimeCategory::kProtocol)]);
  layers.Num("vt.polling_s", vt_s[static_cast<int>(TimeCategory::kPolling)]);
  layers.Num("vt.comm_wait_s", vt_s[static_cast<int>(TimeCategory::kCommWait)]);
  layers.Num("vt.write_doubling_s", vt_s[static_cast<int>(TimeCategory::kWriteDoubling)]);
  JsonObject tail_pct;
  if (traced) {
    layers.Num("runtime.busy_ms", busy_ms);
    layers.Num("runtime.idle_frac", 1.0 - ratio(busy_ms, runtime_run_ms));
    AddLatency(&layers, &tail_pct, "vm.fault_us", lat.fault_us);
    AddLatency(&layers, &tail_pct, "protocol.coh_lag_us", lat.coh_lag_us);
    AddLatency(&layers, &tail_pct, "msg.fetch_rtt_us", lat.fetch_rtt_us);
    AddLatency(&layers, &tail_pct, "sync.barrier_wait_us", lat.barrier_wait_us);
    AddLatency(&layers, &tail_pct, "sync.lock_hold_us", lat.lock_hold_us);
    layers.Num("trace.events", get(Counter::kTraceEvents));
    layers.Num("trace.drops", get(Counter::kTraceDrops));
  }

  JsonObject out;
  out.Num("setup_s", setup_s);
  out.Num("wall_s", wall_s);
  out.Num("speedup", std::exp(log_speedup / n_apps));
  out.Num("measured_time_scale", measured_time_scale);
  out.Num("failed", failed);
  out.Raw("apps", "[" + apps_json + "]");
  out.Raw("layers", layers.str());
  if (traced) {
    out.Raw("tail_pct", tail_pct.str());
    if (!spans.Write(opt.trace_out)) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  return opt.calibrate ? Calibrate(opt) : RunPass(opt);
}
