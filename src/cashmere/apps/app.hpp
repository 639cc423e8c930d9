// The benchmark application suite (Section 3.2). Each application exposes
// a DSM-parallel implementation (run under a Runtime) and a sequential
// reference (plain memory, no protocol), so every run can be verified and
// the paper's speedups computed against "uninstrumented" sequential time.
#ifndef CASHMERE_APPS_APP_HPP_
#define CASHMERE_APPS_APP_HPP_

#include <memory>
#include <string>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/stats.hpp"
#include "cashmere/common/trace.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {

enum class AppKind : int {
  kSor = 0,
  kLu,
  kWater,
  kTsp,
  kGauss,
  kIlink,
  kEm3d,
  kBarnes,
};
inline constexpr int kNumApps = 8;
const char* AppName(AppKind kind);

// Size classes: 0 = tiny (unit/integration tests), 1 = benchmark default,
// 2 = large (closer to paper scale, still minutes not hours).
inline constexpr int kSizeTest = 0;
inline constexpr int kSizeBench = 1;
inline constexpr int kSizeLarge = 2;
// Parses a size-class name ("test" | "bench" | "large") into `*out`; false
// (out untouched) on any other name. Shared by the CLI drivers' --size flags.
bool ParseSizeClass(const char* name, int* out);

class IApp {
 public:
  virtual ~IApp() = default;

  virtual AppKind kind() const = 0;
  const char* name() const { return AppName(kind()); }
  // Shared-heap bytes the parallel run needs.
  virtual std::size_t HeapBytes() const = 0;
  // Synchronization objects the app uses.
  virtual SyncShape Sync() const { return SyncShape{}; }
  // Runs the parallel version; returns a result checksum.
  virtual double RunParallel(Runtime& rt) = 0;
  // Runs the sequential reference on private memory; returns its checksum.
  virtual double RunSequential() = 0;
  // Relative tolerance for checksum verification (0 = bit-exact expected).
  virtual double Tolerance() const { return 0.0; }
  // Table 2 context: the paper's sequential time and problem size.
  virtual double PaperSeqSeconds() const = 0;
  virtual const char* PaperProblemSize() const = 0;
  virtual std::size_t PaperDataBytes() const = 0;  // Table 2 shared-memory size
  // Table 3's "Data (Mbytes)" row for Cashmere-2L at 32 processors — the
  // paper's measured communication volume, used to derive the cost scale
  // for scaled-down runs.
  virtual double PaperDataMbytes32() const = 0;
  virtual std::string ProblemSize() const = 0;
};

std::unique_ptr<IApp> MakeApp(AppKind kind, int size_class);

// --- Factory registry -----------------------------------------------------
// Each application .cpp self-registers at static-initialization time via
// CASHMERE_REGISTER_APP; the drivers and tests dispatch by name through this
// table, so adding a workload needs no edits outside its own translation
// unit. cashmere_apps is an OBJECT library so the registration objects are
// always linked (a static archive would dead-strip them).
class App {
 public:
  using Factory = std::unique_ptr<IApp> (*)(int size_class);

  // Creates the application registered under `name` (exact match, e.g.
  // "SOR"); nullptr if no such registration exists.
  static std::unique_ptr<IApp> Create(const std::string& name, int size_class);
  // Registered application names, in AppKind order.
  static std::vector<std::string> Names();
  // Name -> kind lookup (for drivers that key experiments by AppKind).
  static bool Lookup(const std::string& name, AppKind* kind);

  // Called by CASHMERE_REGISTER_APP; returns true so the macro can bind the
  // call to a namespace-scope constant's initializer.
  static bool Register(AppKind kind, const char* name, Factory factory);
};

// Registers `cls` (constructible from an int size class) under `name`.
// Place at namespace scope in the application's .cpp.
#define CASHMERE_REGISTER_APP(cls, kind, name)                                 \
  [[maybe_unused]] const bool cls##_registered = ::cashmere::App::Register(    \
      kind, name, [](int size_class) -> std::unique_ptr<::cashmere::IApp> {    \
        return std::make_unique<cls>(size_class);                              \
      })

// One full experiment: run the app on `cfg`, verify against the sequential
// reference, and compute the modeled speedup.
struct AppRunResult {
  AppKind kind = AppKind::kSor;
  Config cfg;
  StatsReport report;
  double parallel_checksum = 0.0;
  double sequential_checksum = 0.0;
  bool verified = false;
  double seq_host_seconds = 0.0;    // measured, uninstrumented, this host
  double seq_alpha_seconds = 0.0;   // scaled to the emulated 233 MHz Alpha
  double speedup = 0.0;             // seq_alpha_seconds / virtual exec time
  // Event streams of the run that produced `report` (the dilation-corrected
  // rerun when one happened); non-null iff cfg.trace.enabled.
  std::shared_ptr<TraceLog> trace;
};

AppRunResult RunApp(AppKind kind, Config cfg, int size_class);

// Measured-and-scaled sequential time (cached per kind/size across calls,
// since the reference run is deterministic).
void SequentialBaseline(AppKind kind, int size_class, double* host_seconds,
                        double* alpha_seconds, double* checksum);

// The cost-model scale factor that restores the paper's compute-to-
// communication ratio for this app at this (scaled-down) size; cached.
// Config::cost.scale == 0 in RunApp triggers this automatically.
double AutoCostScale(AppKind kind, int size_class);

}  // namespace cashmere

#endif  // CASHMERE_APPS_APP_HPP_
