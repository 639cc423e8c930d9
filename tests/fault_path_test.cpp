// Fault-path edge cases: access patterns that stress the OnFault state
// machine — read-then-write upgrades, write-after-invalidate merges,
// cold-vs-warm faults, fetch retry on in-flight notices, multi-page
// objects spanning superpage boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>

#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config FpConfig(int nodes = 2, int ppn = 2) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 64 * kPageBytes;
  cfg.superpage_pages = 4;
  cfg.cost.time_scale = 3.0;
  cfg.first_touch = false;
  return cfg;
}

TEST(FaultPathTest, ReadThenWriteUpgradeCountsTwoFaults) {
  Runtime rt(FpConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 1) {
      volatile int* p = ctx.Ptr<volatile int>(a);
      const int v = p[2];  // read fault (volatile: a genuine load)
      p[0] = v + 1;        // write fault (upgrade)
      p[1] = 2;            // no fault
    }
    ctx.Barrier(0);
  });
  const Stats& s = rt.report().total;
  EXPECT_EQ(s.Get(Counter::kReadFaults), 1u);
  EXPECT_EQ(s.Get(Counter::kWriteFaults), 1u);
  EXPECT_EQ(rt.Read<int>(a), 1);  // p[2] was zero-filled
}

TEST(FaultPathTest, WriteFirstTakesSingleWriteFault) {
  Runtime rt(FpConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 1) {
      int* p = ctx.Ptr<int>(a);
      p[0] = 5;            // write fault straight to read-write
      const int v = p[0];  // no fault
      p[1] = v;
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.report().total.Get(Counter::kReadFaults), 0u);
  EXPECT_EQ(rt.report().total.Get(Counter::kWriteFaults), 1u);
}

TEST(FaultPathTest, ObjectSpanningSuperpageBoundary) {
  Runtime rt(FpConfig(4, 1));
  // An array crossing pages 3|4 — a superpage boundary (4 pages/superpage),
  // so its halves have different homes.
  const GlobalAddr a = 3 * kPageBytes + kPageBytes / 2;
  constexpr int kInts = 3 * 2048;  // spans pages 3,4,5
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 2) {
      for (int i = 0; i < kInts; ++i) {
        p[i] = i + 9;
      }
    }
    ctx.Barrier(0);
    long sum = 0;
    for (int i = 0; i < kInts; ++i) {
      sum += p[i];
    }
    EXPECT_EQ(sum, static_cast<long>(kInts) * 9 + static_cast<long>(kInts) * (kInts - 1) / 2);
    ctx.Barrier(0);
  });
}

TEST(FaultPathTest, RepeatedInvalidationsConvergePerRound) {
  // Alternating writers on one page: each round the previous reader's copy
  // is stale and must refetch; counts must scale with rounds, not explode.
  Runtime rt(FpConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  constexpr int kRounds = 10;
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int r = 0; r < kRounds; ++r) {
      if (ctx.proc() == r % 2) {
        p[64] = r;
      }
      ctx.Barrier(0);
      EXPECT_EQ(p[64], r);
      ctx.Barrier(0);
    }
  });
  const Stats& s = rt.report().total;
  // At most ~2 transfers per round (one per side) plus cold misses.
  EXPECT_LE(s.Get(Counter::kPageTransfers), 2u * kRounds + 6);
}

TEST(FaultPathTest, DenselySharedPageManyWriters) {
  // All 8 processors write disjoint words of one page every round.
  Runtime rt(FpConfig(4, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  constexpr int kRounds = 6;
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int r = 1; r <= kRounds; ++r) {
      p[ctx.proc() * 16] = r * 100 + ctx.proc();
      ctx.Barrier(0);
      for (int q = 0; q < ctx.total_procs(); ++q) {
        EXPECT_EQ(p[q * 16], r * 100 + q) << "round " << r;
      }
      ctx.Barrier(0);
    }
  });
}

TEST(FaultPathTest, MultiPageWriteThenMiddlePagesRead) {
  Runtime rt(FpConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(4 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 4 * 2048; ++i) {  // one write fault per page
        p[i] = i;
      }
    }
    ctx.Barrier(0);
    EXPECT_EQ(p[4096], 4096);  // middle pages only
    EXPECT_EQ(p[8191], 8191);
    ctx.Barrier(0);
  });
}

// Views are per-processor, like per-process mappings on the real system:
// an access to another processor's view is a program error, and the fault
// handler names both processors before the default SIGSEGV action kills
// the process.
TEST(FaultPathDeathTest, TouchingAnotherProcessorsViewAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Config cfg = FpConfig(2, 1);
  const auto touch = [cfg] {
    Runtime rt(cfg);
    std::atomic<std::byte*> other{nullptr};
    rt.Run([&](Context& ctx) {
      if (ctx.proc() == 1) {
        other.store(ctx.view_base());
      }
      ctx.Barrier(0);
      if (ctx.proc() == 0) {
        *reinterpret_cast<volatile int*>(other.load()) = 1;
      }
      ctx.Barrier(0);
    });
  };
  EXPECT_DEATH(touch(), "processor 0 touched processor 1's view");
}

TEST(FaultPathTest, ColdReadOfZeroFilledHeap) {
  Runtime rt(FpConfig(4, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(2 * kPageBytes);
  rt.Run([&](Context& ctx) {
    const int* p = ctx.Ptr<int>(a);
    long sum = 0;
    for (int i = 0; i < 4096; ++i) {
      sum += p[i];
    }
    EXPECT_EQ(sum, 0);  // master frames are zero-filled
  });
}

}  // namespace
}  // namespace cashmere
