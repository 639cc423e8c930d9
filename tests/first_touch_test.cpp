// First-touch home relocation tests (Section 2.3): round-robin initial
// homes, one-shot relocation to the first touching unit after
// initialization, superpage granularity, and the exclusive-mode guard.
#include <gtest/gtest.h>

#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config FtConfig(int nodes, int ppn) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 64 * kPageBytes;
  cfg.superpage_pages = 4;
  cfg.cost.time_scale = 5.0;
  cfg.first_touch = true;
  return cfg;
}

TEST(FirstTouchTest, RelocationMovesHomeToTouchingUnit) {
  Runtime rt(FtConfig(4, 1));
  // Superpage 1 (pages 4..7) initially homed at unit 1.
  const GlobalAddr a = 4 * kPageBytes;
  ASSERT_EQ(rt.homes().HomeOfSuperpage(1), 1);
  rt.Run([&](Context& ctx) {
    ctx.InitDone();
    if (ctx.proc() == 3) {
      int* p = ctx.Ptr<int>(a);
      p[0] = 77;  // first touch after init: superpage 1 moves to unit 3
    }
    ctx.Barrier(0);
    EXPECT_EQ(ctx.Ptr<int>(a)[0], 77);
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.homes().HomeOfSuperpage(1), 3);
  EXPECT_FALSE(rt.homes().IsDefault(1));
  EXPECT_GT(rt.report().total.Get(Counter::kHomeRelocations), 0u);
  EXPECT_EQ(rt.Read<int>(a), 77);
}

TEST(FirstTouchTest, OldHomeWithoutMappingRefetches) {
  // The old home never mapped the page, so it is not in the sharing set:
  // once another unit has broken the new home's exclusive mode, the old
  // home must fetch rather than map its pre-relocation frame.
  Runtime rt(FtConfig(4, 1));
  const GlobalAddr a = 4 * kPageBytes;  // superpage 1, homed at unit 1
  rt.Run([&](Context& ctx) {
    ctx.InitDone();
    if (ctx.proc() == 3) {
      ctx.Ptr<int>(a)[0] = 77;  // relocates to unit 3, exclusive there
    }
    ctx.Barrier(0);
    if (ctx.proc() == 0) {
      EXPECT_EQ(ctx.Ptr<int>(a)[0], 77);  // breaks unit 3's exclusive mode
    }
    ctx.Barrier(0);
    if (ctx.proc() == 1) {
      EXPECT_EQ(ctx.Ptr<int>(a)[0], 77);
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.homes().HomeOfSuperpage(1), 3);
}

TEST(FirstTouchTest, TouchByDefaultHomeSealsWithoutRelocation) {
  Runtime rt(FtConfig(4, 1));
  const GlobalAddr a = 4 * kPageBytes;  // superpage 1, homed at unit 1
  rt.Run([&](Context& ctx) {
    ctx.InitDone();
    if (ctx.proc() == 1) {
      ctx.Ptr<int>(a)[0] = 5;
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.homes().HomeOfSuperpage(1), 1);
  EXPECT_FALSE(rt.homes().IsDefault(1));  // sealed
  EXPECT_EQ(rt.report().total.Get(Counter::kHomeRelocations), 0u);
}

TEST(FirstTouchTest, DataSurvivesRelocation) {
  // Data written during initialization (before InitDone) must survive a
  // post-init relocation to another unit.
  Runtime rt(FtConfig(4, 1));
  const GlobalAddr a = 8 * kPageBytes;  // superpage 2, homed at unit 2
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 512; ++i) {
        p[i] = 9000 + i;
      }
    }
    ctx.Barrier(0);
    ctx.InitDone();
    if (ctx.proc() == 3) {
      // First post-init touch: reads must see init data even as the
      // superpage relocates.
      long sum = 0;
      for (int i = 0; i < 512; ++i) {
        sum += p[i];
      }
      EXPECT_EQ(sum, 9000L * 512 + 511L * 512 / 2);
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.Read<int>(a + 511 * 4), 9000 + 511);
}

TEST(FirstTouchTest, ExclusiveSuperpageIsNotRelocated) {
  // If another unit holds pages of the superpage in exclusive mode, the
  // master copy is stale, so relocation must be refused (sealed instead).
  Runtime rt(FtConfig(4, 1));
  const GlobalAddr a = 12 * kPageBytes;  // superpage 3, homed at unit 3
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    ctx.InitDone();
    if (ctx.proc() == 0) {
      p[0] = 42;  // unit 0 takes it exclusive... and relocates (it's first)
    }
    ctx.Barrier(0);
    if (ctx.proc() == 1) {
      EXPECT_EQ(p[0], 42);  // regardless of where the home ended up
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.Read<int>(a), 42);
}

TEST(FirstTouchTest, DisabledFirstTouchKeepsRoundRobin) {
  Config cfg = FtConfig(4, 1);
  cfg.first_touch = false;
  Runtime rt(cfg);
  const GlobalAddr a = 4 * kPageBytes;
  rt.Run([&](Context& ctx) {
    ctx.InitDone();
    if (ctx.proc() == 3) {
      ctx.Ptr<int>(a)[0] = 1;
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.homes().HomeOfSuperpage(1), 1);
  EXPECT_EQ(rt.report().total.Get(Counter::kHomeRelocations), 0u);
}

TEST(FirstTouchTest, AllPagesOfSuperpageShareTheNewHome) {
  Runtime rt(FtConfig(4, 1));
  const GlobalAddr a = 16 * kPageBytes;  // superpage 4 -> unit 0 by default
  ASSERT_EQ(rt.homes().HomeOfSuperpage(4), 0);
  rt.Run([&](Context& ctx) {
    ctx.InitDone();
    if (ctx.proc() == 2) {
      ctx.Ptr<int>(a)[0] = 1;  // touch only the first page
    }
    ctx.Barrier(0);
  });
  if (rt.homes().HomeOfSuperpage(4) == 2) {
    for (PageId page = 16; page < 20; ++page) {
      EXPECT_EQ(rt.homes().HomeOfPage(page), 2);
    }
  }
}

TEST(FirstTouchTest, ConcurrentFirstTouchesSettleOnce) {
  // All units race to first-touch the same superpage; exactly one
  // relocation (or seal) may win, and data must stay consistent.
  for (int round = 0; round < 3; ++round) {
    Runtime rt(FtConfig(4, 2));
    const GlobalAddr a = 20 * kPageBytes;  // superpage 5 -> unit 1
    rt.Run([&](Context& ctx) {
      ctx.InitDone();
      int* p = ctx.Ptr<int>(a);
      p[ctx.proc() * 16] = ctx.proc() + 1;  // everyone races
      ctx.Barrier(0);
      for (int q = 0; q < ctx.total_procs(); ++q) {
        EXPECT_EQ(p[q * 16], q + 1);
      }
      ctx.Barrier(0);
    });
    EXPECT_FALSE(rt.homes().IsDefault(5));
  }
}

}  // namespace
}  // namespace cashmere
