// Application-level verification: every benchmark app, run tiny, against
// its sequential reference, across a matrix of protocols and cluster
// shapes. These are the primary end-to-end correctness checks for the
// coherence protocols.
#include <gtest/gtest.h>

#include <algorithm>

#include "cashmere/apps/app.hpp"

namespace cashmere {
namespace {

struct Case {
  AppKind kind;
  ProtocolVariant protocol;
  int nodes;
  int ppn;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = std::string(AppName(c.kind)) + "_" + ProtocolVariantName(c.protocol) +
                     "_" + std::to_string(c.nodes) + "x" + std::to_string(c.ppn);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

class AppMatrixTest : public testing::TestWithParam<Case> {};

TEST_P(AppMatrixTest, VerifiesAgainstSequential) {
  const Case& c = GetParam();
  Config cfg;
  cfg.protocol = c.protocol;
  cfg.nodes = c.nodes;
  cfg.procs_per_node = c.ppn;
  cfg.cost.time_scale = 10.0;
  const AppRunResult result = RunApp(c.kind, cfg, kSizeTest);
  EXPECT_TRUE(result.verified)
      << AppName(c.kind) << " parallel=" << result.parallel_checksum
      << " sequential=" << result.sequential_checksum;
  EXPECT_GT(result.report.exec_time_ns, 0u);
}

std::vector<Case> AllAppsTwoLevel() {
  std::vector<Case> cases;
  for (int a = 0; a < kNumApps; ++a) {
    cases.push_back({static_cast<AppKind>(a), ProtocolVariant::kTwoLevel, 2, 2});
  }
  return cases;
}

std::vector<Case> ProtocolSweep() {
  // Every protocol variant over a pair of representative apps: one
  // barrier-based (SOR) and one lock-based with false sharing (Water).
  std::vector<Case> cases;
  for (const auto v :
       {ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown,
        ProtocolVariant::kTwoLevelGlobalLock, ProtocolVariant::kOneLevelDiff,
        ProtocolVariant::kOneLevelWriteDouble}) {
    cases.push_back({AppKind::kSor, v, 2, 2});
    cases.push_back({AppKind::kWater, v, 2, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppMatrixTest, testing::ValuesIn(AllAppsTwoLevel()),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Protocols, AppMatrixTest, testing::ValuesIn(ProtocolSweep()),
                         CaseName);

// The pinned data volumes behind AutoCostScale (IApp::DataMbytes32) against
// a fresh 32:4 2L run at `cost.scale = 1`, the configuration they were
// measured at. Each tolerance bounds max(fresh/pinned, pinned/fresh) - 1 and
// is at least 3x the largest such deviation over 32 runs per entry: the 20
// the pinned median comes from (ten alone, ten beside three other runs) and
// 12 as one of four concurrent copies, the load under which 2L's volume
// moves most (EXPERIMENTS.md, "Pinned data volumes", has the spreads and the
// commands). TSP at bench size and the large size stay out of tier-1 for
// time.
struct VolumeCase {
  AppKind kind;
  int size_class;
  double tolerance;
};

class DataVolumeTableTest : public testing::TestWithParam<VolumeCase> {};

TEST_P(DataVolumeTableTest, FreshRunStaysWithinTolerance) {
  const VolumeCase& c = GetParam();
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.cost.scale = 1.0;
  const AppRunResult result = RunApp(c.kind, cfg, c.size_class);
  const double fresh =
      static_cast<double>(result.report.total.Get(Counter::kDataBytes)) / (1024.0 * 1024.0);
  const double pinned = MakeApp(c.kind, c.size_class)->DataMbytes32();
  ASSERT_GT(fresh, 0.0);
  EXPECT_LE(std::max(fresh / pinned, pinned / fresh) - 1.0, c.tolerance)
      << AppName(c.kind) << " size " << c.size_class << ": fresh " << fresh
      << " MB, pinned " << pinned << " MB";
}

std::string VolumeCaseName(const testing::TestParamInfo<VolumeCase>& info) {
  static constexpr const char* kSizeNames[] = {"test", "bench", "large"};
  return std::string(AppName(info.param.kind)) + "_" + kSizeNames[info.param.size_class];
}

INSTANTIATE_TEST_SUITE_P(Pinned, DataVolumeTableTest, testing::Values(
    VolumeCase{AppKind::kSor, kSizeTest, 0.80},
    VolumeCase{AppKind::kLu, kSizeTest, 1.00},
    VolumeCase{AppKind::kWater, kSizeTest, 3.75},
    VolumeCase{AppKind::kTsp, kSizeTest, 1.75},
    VolumeCase{AppKind::kGauss, kSizeTest, 2.85},
    VolumeCase{AppKind::kIlink, kSizeTest, 0.05},
    VolumeCase{AppKind::kEm3d, kSizeTest, 0.85},
    VolumeCase{AppKind::kBarnes, kSizeTest, 0.80},
    VolumeCase{AppKind::kSor, kSizeBench, 0.30},
    VolumeCase{AppKind::kLu, kSizeBench, 0.15},
    VolumeCase{AppKind::kWater, kSizeBench, 2.60},
    VolumeCase{AppKind::kGauss, kSizeBench, 1.75},
    VolumeCase{AppKind::kIlink, kSizeBench, 0.05},
    VolumeCase{AppKind::kEm3d, kSizeBench, 0.05},
    VolumeCase{AppKind::kBarnes, kSizeBench, 0.25}),
    VolumeCaseName);

}  // namespace
}  // namespace cashmere
