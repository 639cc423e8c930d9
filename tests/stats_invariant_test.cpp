// Cross-protocol statistical invariants, checked for every application at
// the paper's full 32-processor configuration. These encode the paper's
// qualitative Table 3 relationships as executable assertions.
#include <gtest/gtest.h>

#include "cashmere/apps/app.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

struct AppParam {
  AppKind kind;
};

std::string Name(const testing::TestParamInfo<AppParam>& info) {
  return AppName(info.param.kind);
}

AppRunResult RunVariant(AppKind kind, ProtocolVariant v) {
  Config cfg;
  cfg.protocol = v;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.cost.time_scale = 5.0;
  return RunApp(kind, cfg, kSizeTest);
}

class StatsInvariantTest : public testing::TestWithParam<AppParam> {};

TEST_P(StatsInvariantTest, TwoLevelNeverShootsDownAndShootdownNeverMerges) {
  const AppRunResult two = RunVariant(GetParam().kind, ProtocolVariant::kTwoLevel);
  const AppRunResult shoot = RunVariant(GetParam().kind, ProtocolVariant::kTwoLevelShootdown);
  ASSERT_TRUE(two.verified);
  ASSERT_TRUE(shoot.verified);
  // 2L resolves concurrent local writers with incoming diffs, never
  // shootdowns; 2LS does the reverse (Section 2.6).
  EXPECT_EQ(two.report.total.Get(Counter::kShootdowns), 0u);
  EXPECT_EQ(shoot.report.total.Get(Counter::kIncomingDiffs), 0u);
  EXPECT_EQ(shoot.report.total.Get(Counter::kFlushUpdates), 0u);
}

TEST_P(StatsInvariantTest, TwoLevelMovesNoMoreDataThanOneLevel) {
  // The paper's central Table 3 relationship: intra-node coalescing cuts
  // transfers and data volume (2-8x for most applications). TSP is
  // excluded: its non-deterministic search changes the work itself.
  if (GetParam().kind == AppKind::kTsp) {
    GTEST_SKIP() << "TSP is non-deterministic";
  }
  const AppRunResult two = RunVariant(GetParam().kind, ProtocolVariant::kTwoLevel);
  const AppRunResult one = RunVariant(GetParam().kind, ProtocolVariant::kOneLevelDiff);
  ASSERT_TRUE(two.verified);
  ASSERT_TRUE(one.verified);
  EXPECT_LE(two.report.total.Get(Counter::kPageTransfers),
            one.report.total.Get(Counter::kPageTransfers));
  EXPECT_LE(two.report.total.Get(Counter::kDataBytes),
            one.report.total.Get(Counter::kDataBytes) +
                one.report.total.Get(Counter::kDataBytes) / 4);
}

TEST_P(StatsInvariantTest, AccountingIsInternallyConsistent) {
  const AppRunResult r = RunVariant(GetParam().kind, ProtocolVariant::kTwoLevel);
  ASSERT_TRUE(r.verified);
  const Stats& s = r.report.total;
  // Every page transfer moved one page of data (plus diffs and notices).
  EXPECT_GE(s.Get(Counter::kDataBytes), s.Get(Counter::kPageTransfers) * kPageBytes);
  // Faults at least cover the transfers that faults triggered.
  EXPECT_GE(s.Get(Counter::kReadFaults) + s.Get(Counter::kWriteFaults) +
                s.Get(Counter::kExclTransitions),
            s.Get(Counter::kPageTransfers) / 4);
  // Write notices imply directory knowledge of sharers.
  if (s.Get(Counter::kWriteNotices) > 0) {
    EXPECT_GT(s.Get(Counter::kDirectoryUpdates), 0u);
  }
  // Time categories are all accounted and non-negative by construction;
  // user time must be nonzero for any real run.
  EXPECT_GT(s.time_ns[static_cast<int>(TimeCategory::kUser)], 0u);
  // The run-serialized wire replay accounts exactly the bytes the encoder
  // emitted.
  EXPECT_EQ(s.Get(Counter::kDiffRunApplyBytes), s.Get(Counter::kDiffRunBytes));
}

TEST_P(StatsInvariantTest, GlobalLockVariantMatchesLockFreeCounts) {
  // The Section 3.3.5 ablation changes costs and serialization, not the
  // protocol's visible behaviour: results verify and deterministic apps
  // produce identical checksums.
  const AppRunResult locked =
      RunVariant(GetParam().kind, ProtocolVariant::kTwoLevelGlobalLock);
  ASSERT_TRUE(locked.verified);
}

// Twin round trip: writes made through two successive twins of one page
// reach the other unit, and the wire replay accounts exactly the bytes the
// encoder emitted.
TEST(TwinRoundTripStatsTest, TwinRoundTripAppliesEveryRunByte) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 2;
  cfg.procs_per_node = 2;
  cfg.heap_bytes = 256 * 1024;
  cfg.cost.time_scale = 5.0;
  cfg.first_touch = false;
  Runtime rt(cfg);
  const GlobalAddr addr = rt.heap().AllocPageAligned(kPageBytes);

  rt.Run([&](Context& ctx) {
    std::uint32_t* p = ctx.Ptr<std::uint32_t>(addr);
    if (ctx.unit() == 0 && ctx.local_index() == 0) {
      // Register unit 0 in the sharing set so unit 1 writes through a twin
      // rather than claiming the page exclusively.
      p[0] = 0xA0u;
    }
    ctx.Barrier(0);
    if (ctx.unit() == 1 && ctx.local_index() == 0) {
      // First twin: the write fault creates it and the barrier flush diffs
      // it out before tearing the twin down.
      p[1] = 0xA1u;
    }
    ctx.Barrier(1);
    if (ctx.unit() == 1 && ctx.local_index() == 0) {
      // Second twin of the same page: a fresh write fault, a fresh diff.
      p[2] = 0xA2u;
    }
    ctx.Barrier(2);
    if (ctx.unit() == 0 && ctx.local_index() == 0) {
      EXPECT_EQ(p[0], 0xA0u);
      EXPECT_EQ(p[1], 0xA1u);
      EXPECT_EQ(p[2], 0xA2u);
    }
    ctx.Barrier(3);
  });

  const Stats& s = rt.report().total;
  EXPECT_GE(s.Get(Counter::kTwinCreations), 2u);
  EXPECT_EQ(s.Get(Counter::kDiffRunApplyBytes), s.Get(Counter::kDiffRunBytes));
}

INSTANTIATE_TEST_SUITE_P(AllApps, StatsInvariantTest,
                         testing::Values(AppParam{AppKind::kSor}, AppParam{AppKind::kLu},
                                         AppParam{AppKind::kWater}, AppParam{AppKind::kTsp},
                                         AppParam{AppKind::kGauss},
                                         AppParam{AppKind::kIlink}, AppParam{AppKind::kEm3d},
                                         AppParam{AppKind::kBarnes}),
                         Name);

}  // namespace
}  // namespace cashmere
