// Unit tests for the common module: cost model, virtual clock, stats,
// config topology helpers, spin primitives, RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cashmere/apps/app.hpp"
#include "cashmere/common/calibration.hpp"
#include "cashmere/common/config.hpp"
#include "cashmere/common/cost_model.hpp"
#include "cashmere/common/rng.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/stats.hpp"
#include "cashmere/common/virtual_clock.hpp"

namespace cashmere {
namespace {

TEST(CostModelTest, DiffCostsInterpolateWithinPaperRanges) {
  CostModel costs;
  // Empty diff and full-page diff hit the published endpoints.
  EXPECT_EQ(costs.DiffOutNs(0, false), CostModel::UsToNs(290.0));
  EXPECT_EQ(costs.DiffOutNs(kWordsPerPage, false), CostModel::UsToNs(363.0));
  EXPECT_EQ(costs.DiffOutNs(0, true), CostModel::UsToNs(340.0));
  EXPECT_EQ(costs.DiffOutNs(kWordsPerPage, true), CostModel::UsToNs(561.0));
  EXPECT_EQ(costs.DiffInNs(0), CostModel::UsToNs(533.0));
  EXPECT_EQ(costs.DiffInNs(kWordsPerPage), CostModel::UsToNs(541.0));
  // Midpoint lies strictly inside the range.
  const auto mid = costs.DiffOutNs(kWordsPerPage / 2, false);
  EXPECT_GT(mid, CostModel::UsToNs(290.0));
  EXPECT_LT(mid, CostModel::UsToNs(363.0));
}

TEST(CostModelTest, BarrierCostsMatchTable1Endpoints) {
  CostModel costs;
  EXPECT_EQ(costs.BarrierNs(2, true), CostModel::UsToNs(58.0));
  EXPECT_EQ(costs.BarrierNs(32, true), CostModel::UsToNs(321.0));
  EXPECT_EQ(costs.BarrierNs(2, false), CostModel::UsToNs(41.0));
  EXPECT_EQ(costs.BarrierNs(32, false), CostModel::UsToNs(364.0));
}

TEST(CostModelTest, LockAndTransferCostsMatchTable1) {
  CostModel costs;
  EXPECT_EQ(costs.LockAcquireNs(true), CostModel::UsToNs(19.0));
  EXPECT_EQ(costs.LockAcquireNs(false), CostModel::UsToNs(11.0));
  EXPECT_EQ(costs.PageTransferNs(true, true), CostModel::UsToNs(467.0));
  EXPECT_EQ(costs.PageTransferNs(false, true), CostModel::UsToNs(824.0));
  EXPECT_EQ(costs.PageTransferNs(false, false), CostModel::UsToNs(777.0));
}

TEST(ConfigTest, TwoLevelTopologyMapsProcsToNodes) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  EXPECT_EQ(cfg.units(), 8);
  EXPECT_EQ(cfg.procs_per_unit(), 4);
  EXPECT_EQ(cfg.UnitOfProc(0), 0);
  EXPECT_EQ(cfg.UnitOfProc(7), 1);
  EXPECT_EQ(cfg.UnitOfProc(31), 7);
  EXPECT_EQ(cfg.FirstProcOfUnit(3), 12);
  EXPECT_EQ(cfg.NodeOfProc(13), 3);
}

TEST(ConfigTest, OneLevelTopologyMapsProcsToThemselves) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kOneLevelDiff;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  EXPECT_EQ(cfg.units(), 32);
  EXPECT_EQ(cfg.procs_per_unit(), 1);
  EXPECT_EQ(cfg.UnitOfProc(13), 13);
  EXPECT_EQ(cfg.NodeOfProc(13), 3);  // SMP node unchanged
}

TEST(ConfigTest, GeometryHelpers) {
  Config cfg;
  cfg.heap_bytes = 64 * kPageBytes;
  cfg.superpage_pages = 16;
  EXPECT_EQ(cfg.pages(), 64u);
  EXPECT_EQ(cfg.superpages(), 4u);
  EXPECT_EQ(cfg.superpage_bytes(), 16 * kPageBytes);
}

TEST(VirtualClockTest, ChargeAdvancesAndCategorizes) {
  VirtualClock clock;
  Stats stats;
  clock.Start(1.0);
  clock.Charge(stats, TimeCategory::kProtocol, 500);
  clock.Charge(stats, TimeCategory::kCommWait, 300);
  EXPECT_EQ(clock.now(), 800u);
  EXPECT_EQ(stats.time_ns[static_cast<int>(TimeCategory::kProtocol)], 500u);
  EXPECT_EQ(stats.time_ns[static_cast<int>(TimeCategory::kCommWait)], 300u);
}

TEST(VirtualClockTest, AdvanceToOnlyMovesForward) {
  VirtualClock clock;
  Stats stats;
  clock.Start(1.0);
  clock.Charge(stats, TimeCategory::kProtocol, 1000);
  clock.AdvanceTo(stats, 500);  // in the past: no-op
  EXPECT_EQ(clock.now(), 1000u);
  clock.AdvanceTo(stats, 2500);
  EXPECT_EQ(clock.now(), 2500u);
  EXPECT_EQ(stats.time_ns[static_cast<int>(TimeCategory::kCommWait)], 1500u);
}

TEST(VirtualClockTest, NestedProtocolScopesChargeUserOnce) {
  VirtualClock clock;
  Stats stats;
  clock.Start(1.0);
  clock.EnterProtocol(stats);
  const auto user_after_outer = stats.time_ns[static_cast<int>(TimeCategory::kUser)];
  clock.EnterProtocol(stats);  // nested: must not re-accrue
  clock.ExitProtocol();
  EXPECT_EQ(stats.time_ns[static_cast<int>(TimeCategory::kUser)], user_after_outer);
  clock.ExitProtocol();
  EXPECT_EQ(clock.depth(), 0);
}

TEST(VirtualClockTest, UserTimeScalesWithFactor) {
  VirtualClock clock;
  Stats stats;
  clock.Start(100.0);
  // Burn a little CPU.
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) {
    x = x * 1.0000001;
  }
  clock.AccrueUser(stats);
  const auto scaled = stats.time_ns[static_cast<int>(TimeCategory::kUser)];
  EXPECT_GT(scaled, 0u);

  VirtualClock clock1;
  Stats stats1;
  clock1.Start(1.0);
  for (int i = 0; i < 2000000; ++i) {
    x = x * 1.0000001;
  }
  clock1.AccrueUser(stats1);
  const auto unscaled = stats1.time_ns[static_cast<int>(TimeCategory::kUser)];
  // The 100x-scaled clock should read much larger for similar work.
  EXPECT_GT(scaled, unscaled * 10);
}

TEST(StatsTest, AggregationSums) {
  Stats a;
  Stats b;
  a.Add(Counter::kReadFaults, 5);
  b.Add(Counter::kReadFaults, 7);
  b.Add(Counter::kTwinCreations, 2);
  a += b;
  EXPECT_EQ(a.Get(Counter::kReadFaults), 12u);
  EXPECT_EQ(a.Get(Counter::kTwinCreations), 2u);
}

TEST(StatsTest, ReportRendersAllCounters) {
  StatsReport report;
  report.total.Add(Counter::kWriteNotices, 42);
  report.exec_time_ns = 1500000000;
  const std::string s = report.ToString();
  EXPECT_NE(s.find("Write Notices"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 8000);
}

TEST(SpinLockTest, TryLockFailsWhenHeld) {
  SpinLock lock;
  lock.Lock();
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(RngTest, DeterministicAndWellDistributed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  SplitMix64 c(42);
  int buckets[10] = {};
  for (int i = 0; i < 10000; ++i) {
    buckets[c.NextBelow(10)]++;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(buckets[i], 700);
    EXPECT_LT(buckets[i], 1300);
  }
  SplitMix64 d(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(CalibrationTest, ScaleIsPositiveAndCached) {
  const double s1 = HostToAlphaTimeScale();
  const double s2 = HostToAlphaTimeScale();
  EXPECT_GT(s1, 0.0);
  EXPECT_EQ(s1, s2);
}

TEST(ConfigTest, DescribeMentionsProtocolAndShape) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevelShootdown;
  cfg.nodes = 4;
  cfg.procs_per_node = 2;
  const std::string d = cfg.Describe();
  EXPECT_NE(d.find("2LS"), std::string::npos);
  EXPECT_NE(d.find("8:2"), std::string::npos);
  EXPECT_EQ(d.find("no-first-touch"), std::string::npos);
  cfg.first_touch = false;
  EXPECT_NE(cfg.Describe().find(" no-first-touch"), std::string::npos);
}

TEST(ConfigTest, ParseProtocolVariantRoundTripsNamesAndRejectsUnknown) {
  for (const ProtocolVariant v :
       {ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown,
        ProtocolVariant::kTwoLevelGlobalLock, ProtocolVariant::kOneLevelDiff,
        ProtocolVariant::kOneLevelWriteDouble}) {
    ProtocolVariant parsed = ProtocolVariant::kTwoLevel;
    ASSERT_TRUE(ParseProtocolVariant(ProtocolVariantName(v), &parsed))
        << ProtocolVariantName(v);
    EXPECT_EQ(parsed, v);
  }
  for (const char* bad : {"", "2l", "2L ", "2L-Lock", "1LDX", "?"}) {
    ProtocolVariant out = ProtocolVariant::kOneLevelDiff;
    EXPECT_FALSE(ParseProtocolVariant(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, ProtocolVariant::kOneLevelDiff) << "rejected name wrote *out";
  }
}

TEST(ConfigTest, ParseSizeClassAcceptsOnlyTheThreeSizes) {
  int size = -1;
  EXPECT_TRUE(ParseSizeClass("test", &size));
  EXPECT_EQ(size, kSizeTest);
  EXPECT_TRUE(ParseSizeClass("bench", &size));
  EXPECT_EQ(size, kSizeBench);
  EXPECT_TRUE(ParseSizeClass("large", &size));
  EXPECT_EQ(size, kSizeLarge);
  for (const char* bad : {"tset", "", "Test", "bench ", "huge"}) {
    size = -1;
    EXPECT_FALSE(ParseSizeClass(bad, &size)) << "'" << bad << "'";
    EXPECT_EQ(size, -1);
  }
}

TEST(ConfigTest, ParsePositiveIntAcceptsOnlyWholePositiveDecimals) {
  int n = -1;
  EXPECT_TRUE(ParsePositiveInt("8", &n));
  EXPECT_EQ(n, 8);
  EXPECT_TRUE(ParsePositiveInt("16384", &n));
  EXPECT_EQ(n, 16384);
  for (const char* bad : {"8x", "abc", "", "0", "-4", "+4", " 4", "4 ", "1.5",
                          "99999999999999999999"}) {
    n = -1;
    EXPECT_FALSE(ParsePositiveInt(bad, &n)) << "'" << bad << "'";
    EXPECT_EQ(n, -1);
  }
}

}  // namespace
}  // namespace cashmere
