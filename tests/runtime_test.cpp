// End-to-end runtime smoke tests: allocation, fault-driven sharing,
// synchronization, and result extraction across cluster shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <vector>

#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config SmallConfig(ProtocolVariant v, int nodes, int ppn) {
  Config cfg;
  cfg.protocol = v;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 1 * 1024 * 1024;
  cfg.superpage_pages = 4;
  cfg.cost.time_scale = 10.0;  // fixed: keep tests deterministic-ish and fast
  cfg.first_touch = false;
  return cfg;
}

TEST(RuntimeTest, AllocRespectsAlignment) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 1, 1));
  const GlobalAddr a = rt.Alloc(10, 64);
  const GlobalAddr b = rt.Alloc(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  const GlobalAddr c = rt.heap().AllocPageAligned(10);
  EXPECT_EQ(c % kPageBytes, 0u);
}

TEST(RuntimeTest, CopyInCopyOutRoundTrip) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 2));
  const GlobalAddr a = rt.AllocArray<int>(5000);
  std::vector<int> in(5000);
  std::iota(in.begin(), in.end(), 7);
  rt.CopyIn(a, in.data(), in.size() * sizeof(int));
  std::vector<int> out(5000, 0);
  rt.CopyOut(a, out.data(), out.size() * sizeof(int));
  EXPECT_EQ(in, out);
}

TEST(RuntimeTest, SingleProcessorWritesReachMaster) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 1, 1));
  const GlobalAddr a = rt.AllocArray<int>(1000);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int i = 0; i < 1000; ++i) {
      p[i] = i * 3;
    }
  });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rt.Read<int>(a + static_cast<GlobalAddr>(i) * sizeof(int)), i * 3);
  }
}

TEST(RuntimeTest, FaultCountersAreRecorded) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 1));
  const GlobalAddr a = rt.AllocArray<int>(4096);  // 4 pages
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 0) {
      int* p = ctx.Ptr<int>(a);
      for (int i = 0; i < 4096; ++i) {
        p[i] = i;
      }
    }
    ctx.Barrier(0);
    if (ctx.proc() == 1) {
      const int* p = ctx.Ptr<int>(a);
      long sum = 0;
      for (int i = 0; i < 4096; ++i) {
        sum += p[i];
      }
      EXPECT_EQ(sum, 4096L * 4095 / 2);
    }
    ctx.Barrier(0);
  });
  const Stats& s = rt.report().total;
  EXPECT_GT(s.Get(Counter::kWriteFaults), 0u);
  EXPECT_GT(s.Get(Counter::kReadFaults), 0u);
  EXPECT_EQ(s.Get(Counter::kBarriers), 2u);
  EXPECT_GT(rt.report().exec_time_ns, 0u);
}

TEST(RuntimeTest, ProducerConsumerThroughBarrier) {
  for (const auto v : {ProtocolVariant::kTwoLevel, ProtocolVariant::kOneLevelDiff}) {
    Runtime rt(SmallConfig(v, 2, 2));
    constexpr int kN = 8000;
    const GlobalAddr a = rt.AllocArray<double>(kN);
    rt.Run([&](Context& ctx) {
      double* p = ctx.Ptr<double>(a);
      const int chunk = kN / ctx.total_procs();
      const int begin = ctx.proc() * chunk;
      for (int i = begin; i < begin + chunk; ++i) {
        p[i] = i * 0.5;
      }
      ctx.Barrier(0);
      // Everyone checks everyone else's chunk.
      double sum = 0;
      for (int i = 0; i < kN; ++i) {
        sum += p[i];
      }
      EXPECT_DOUBLE_EQ(sum, 0.5 * kN * (kN - 1) / 2);
      ctx.Barrier(0);
    });
  }
}

TEST(RuntimeTest, LockProtectedCounter) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 2));
  const GlobalAddr a = rt.AllocArray<long>(1);
  rt.Run([&](Context& ctx) {
    for (int i = 0; i < 25; ++i) {
      ctx.LockAcquire(3);
      long* p = ctx.Ptr<long>(a);
      *p = *p + 1;
      ctx.LockRelease(3);
      ctx.Poll();
    }
  });
  EXPECT_EQ(rt.Read<long>(a), 25L * rt.config().total_procs());
  EXPECT_EQ(rt.report().total.Get(Counter::kLockAcquires),
            25u * static_cast<unsigned>(rt.config().total_procs()));
}

TEST(RuntimeTest, FlagsProvideProducerConsumerOrdering) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 1));
  const GlobalAddr a = rt.AllocArray<int>(256);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 256; ++i) {
        p[i] = 1000 + i;
      }
      ctx.FlagSet(0, 1);
    } else {
      ctx.FlagWaitGe(0, 1);
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(p[i], 1000 + i);
      }
    }
  });
}

TEST(RuntimeTest, MultipleRunPhasesShareCoherenceState) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 2));
  const GlobalAddr a = rt.AllocArray<int>(2048);
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 0) {
      for (int i = 0; i < 2048; ++i) {
        ctx.Ptr<int>(a)[i] = i;
      }
    }
    ctx.Barrier(0);
  });
  const auto first_faults = rt.report().total.Get(Counter::kWriteFaults);
  EXPECT_GT(first_faults, 0u);
  rt.Run([&](Context& ctx) {
    long sum = 0;
    const int* p = ctx.Ptr<int>(a);
    for (int i = 0; i < 2048; ++i) {
      sum += p[i];
    }
    EXPECT_EQ(sum, 2048L * 2047 / 2);
  });
  // The second phase's report covers only the second phase.
  EXPECT_EQ(rt.report().total.Get(Counter::kWriteFaults), 0u);
  EXPECT_EQ(rt.report().total.Get(Counter::kBarriers), 0u);
}

TEST(RuntimeTest, CsvExportHasMatchingColumns) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 1, 2));
  const GlobalAddr a = rt.AllocArray<int>(16);
  rt.Run([&](Context& ctx) {
    ctx.Ptr<int>(a)[ctx.proc()] = 1;
    ctx.Barrier(0);
  });
  const std::string header = StatsReport::CsvHeader();
  const std::string row = rt.report().ToCsvRow();
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
  EXPECT_NE(header.find("Page_Transfers"), std::string::npos);
}

TEST(RuntimeTest, ExecutionTimeBreakdownCoversCategories) {
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 2));
  const GlobalAddr a = rt.AllocArray<double>(8000);
  rt.Run([&](Context& ctx) {
    double* p = ctx.Ptr<double>(a);
    for (int iter = 0; iter < 3; ++iter) {
      for (int i = ctx.proc(); i < 8000; i += ctx.total_procs()) {
        p[i] += 1.0;
      }
      ctx.Barrier(0);
      ctx.Poll();
    }
  });
  const Stats& s = rt.report().total;
  EXPECT_GT(s.time_ns[static_cast<int>(TimeCategory::kUser)], 0u);
  EXPECT_GT(s.time_ns[static_cast<int>(TimeCategory::kProtocol)], 0u);
}

TEST(RuntimeTest, RunIsNotFlooredByTheWatchdog) {
  // The watchdog samples progress every 200 ms, but Run wakes it when the
  // work is done, so an empty run takes milliseconds. With a floor, a run
  // lasts at least one 200 ms tick unless it ends before the watchdog
  // thread first looks. The median of 20 runs is checked, because a
  // loaded host can slow any single run.
  Runtime rt(SmallConfig(ProtocolVariant::kTwoLevel, 2, 2));
  std::vector<double> secs;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    rt.Run([](Context&) {});
    secs.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  std::nth_element(secs.begin(), secs.begin() + 10, secs.end());
  EXPECT_LT(secs[10], 0.1);
}

}  // namespace
}  // namespace cashmere
