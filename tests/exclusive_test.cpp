// Exclusive-mode tests (Section 2.4.1): entry when the sharing set is
// empty, zero overhead while held, break on remote access, re-entry, and
// the stale-master hazard when the home node itself reads an
// exclusively-held page.
#include <gtest/gtest.h>

#include <atomic>

#include "cashmere/apps/app.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config XConfig(int nodes, int ppn, ProtocolVariant v = ProtocolVariant::kTwoLevel) {
  Config cfg;
  cfg.protocol = v;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 256 * 1024;
  cfg.superpage_pages = 2;
  cfg.cost.time_scale = 5.0;
  cfg.first_touch = false;
  return cfg;
}

TEST(ExclusiveTest, SoleWriterEntersExclusiveMode) {
  Runtime rt(XConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 1) {
      int* p = ctx.Ptr<int>(a);
      for (int round = 0; round < 50; ++round) {
        p[round] = round;
      }
    }
    ctx.Barrier(0);
  });
  // One transition in, and since nobody else touched the page, no flushes
  // or write notices for it.
  EXPECT_GE(rt.report().total.Get(Counter::kExclTransitions), 1u);
  EXPECT_EQ(rt.report().total.Get(Counter::kWriteNotices), 0u);
  // FinalFlush still publishes the data.
  EXPECT_EQ(rt.Read<int>(a + 49 * 4), 49);
}

TEST(ExclusiveTest, RemoteReadBreaksExclusiveAndGetsLatestData) {
  Runtime rt(XConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 1) {
      for (int i = 0; i < 100; ++i) {
        p[i] = 1000 + i;
      }
    }
    ctx.Barrier(0);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(p[i], 1000 + i);
      }
    }
    ctx.Barrier(0);
  });
  // In, then out when broken.
  EXPECT_GE(rt.report().total.Get(Counter::kExclTransitions), 2u);
}

TEST(ExclusiveTest, HomeNodeReadSeesExclusiveHoldersData) {
  // The master copy is stale while another unit holds the page exclusive;
  // the home node's own read must break exclusivity first. Page 0's home
  // is unit 0; unit 1 writes it exclusively; unit 0 then reads.
  Runtime rt(XConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 1) {
      for (int i = 0; i < 64; ++i) {
        p[i] = 7 * i + 1;
      }
    }
    ctx.Barrier(0);
    if (ctx.proc() == 0) {
      long sum = 0;
      for (int i = 0; i < 64; ++i) {
        sum += p[i];
      }
      EXPECT_EQ(sum, 7L * 63 * 64 / 2 + 64);
    }
    ctx.Barrier(0);
  });
}

TEST(ExclusiveTest, PageReentersExclusiveAfterSharersLeave) {
  // Three nodes, so neither the writer (unit 1) nor the reader (unit 2) is
  // the page's home (unit 0): the home keeps no mapping, and once the
  // reader's copy is invalidated the sharing set empties and the writer
  // re-claims exclusivity.
  Runtime rt(XConfig(3, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    // Round 1: proc 1 writes (exclusive), proc 2 reads (breaks it).
    if (ctx.proc() == 1) {
      p[0] = 1;
    }
    ctx.Barrier(0);
    if (ctx.proc() == 2) {
      EXPECT_EQ(p[0], 1);
    }
    ctx.Barrier(0);
    // Rounds 2..N: only proc 1 touches the page. After proc 2's copy is
    // invalidated by the first round's write notice, proc 1's next write
    // finds an empty sharing set and re-claims exclusivity.
    for (int round = 2; round <= 6; ++round) {
      if (ctx.proc() == 1) {
        p[0] = round;
      }
      ctx.Barrier(0);
    }
  });
  // in (1) + out (break) + in again (re-entry) => at least 3.
  EXPECT_GE(rt.report().total.Get(Counter::kExclTransitions), 3u);
  EXPECT_EQ(rt.Read<int>(a), 6);
}

TEST(ExclusiveTest, LocalJoinKeepsExclusiveMode) {
  // A second processor of the holder node joining (read or write) must not
  // break node-level exclusivity (hardware coherence covers it).
  Runtime rt(XConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.node() == 1) {
      // Both processors of node 1 write the page.
      for (int i = 0; i < 32; ++i) {
        p[ctx.local_index() * 64 + i] = ctx.proc() * 100 + i;
      }
    }
    ctx.Barrier(0);
  });
  const Stats& s = rt.report().total;
  // One entry into exclusive mode; the local join is not a transition.
  // (FinalFlush clears it without counting.)
  EXPECT_EQ(s.Get(Counter::kExclTransitions), 1u);
  EXPECT_EQ(s.Get(Counter::kWriteNotices), 0u);
  EXPECT_EQ(rt.Read<int>(a + 64 * 4), 300);  // proc 3's first element
}

TEST(ExclusiveTest, ConcurrentClaimsResolveToAtMostOneHolder) {
  // Two units write disjoint words of the same never-before-shared page at
  // the same moment; the ordered directory broadcast lets at most one hold
  // exclusivity, and no data may be lost either way.
  for (int round = 0; round < 5; ++round) {
    Runtime rt(XConfig(2, 1));
    const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
    rt.Run([&](Context& ctx) {
      int* p = ctx.Ptr<int>(a);
      p[ctx.proc() * 512] = ctx.proc() + 1;  // both write "simultaneously"
      ctx.Barrier(0);
      EXPECT_EQ(p[0], 1);
      EXPECT_EQ(p[512], 2);
      ctx.Barrier(0);
    });
    EXPECT_EQ(rt.Read<int>(a), 1);
    EXPECT_EQ(rt.Read<int>(a + 512 * 4), 2);
  }
}

TEST(ExclusiveTest, WriteFaultOnExclusiveElsewhereBreaksAndShares) {
  Runtime rt(XConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 1) {
      p[0] = 5;  // exclusive claim by unit 1
    }
    ctx.Barrier(0);
    if (ctx.proc() == 0) {
      p[1] = 6;  // write fault: must break unit 1's exclusivity
    }
    ctx.Barrier(0);
    EXPECT_EQ(p[0], 5);
    EXPECT_EQ(p[1], 6);
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.Read<int>(a), 5);
  EXPECT_EQ(rt.Read<int>(a + 4), 6);
}

TEST(ExclusiveTest, BreakAmidLocalWritersLosesNothing) {
  // LU at bench size, two processors per node: blocks owned by one node's
  // processors share pages, which sit in exclusive mode while both write
  // and are broken by the other node's reads mid-phase. The break handler
  // must stop the holder and take the other writers' twin before it
  // flushes the frame, or words written during the handler are lost.
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 2;
  cfg.procs_per_node = 2;
  cfg.cost.time_scale = 5.0;
  cfg.async.release = false;
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(RunApp(AppKind::kLu, cfg, kSizeBench).verified) << "run " << run;
  }
}

TEST(ExclusiveTest, ClaimWaitsForPendingWriteNotice) {
  // Unit 1 flushes word 1 and posts unit 0 a notice, then leaves the
  // sharing set. Unit 0, with that notice still undrained, write-faults on
  // its now stale copy: claiming exclusive mode there would later ship and
  // flush the whole copy, putting the stale word 1 back into the master.
  for (const ProtocolVariant v :
       {ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown}) {
    Config cfg = XConfig(3, 1, v);
    cfg.async.release = false;
    Runtime rt(cfg);
    GlobalAddr a = rt.heap().AllocPageAligned(6 * kPageBytes);
    while (rt.homes().HomeOfPage(static_cast<PageId>(a / kPageBytes)) != 2) {
      a += kPageBytes;  // home the page on the unit that never touches it
    }
    std::atomic<bool> unit1_left{false};
    rt.Run([&](Context& ctx) {
      int* p = ctx.Ptr<int>(a);
      if (ctx.proc() < 2) {
        EXPECT_EQ(p[0], 0);  // units 0 and 1 share the page
      }
      ctx.Barrier(0);
      if (ctx.proc() == 0) {
        p[0] = 10;
        ctx.FlagSet(0, 1);  // notice to unit 1
        // Ordered after unit 1's release without acquiring it, so the
        // notice stays in unit 0's bins.
        while (!unit1_left.load()) {
        }
        p[2] = 30;  // write fault on a copy missing word 1
      } else if (ctx.proc() == 1) {
        p[1] = 20;
        ctx.FlagWaitGe(0, 1);  // invalidates unit 1's own mapping
        ctx.FlagSet(1, 1);     // flushes word 1, notice to unit 0, leaves
        unit1_left.store(true);
      }
      ctx.Barrier(0);
      if (ctx.proc() == 1) {
        EXPECT_EQ(p[0], 10);
        EXPECT_EQ(p[1], 20);
        EXPECT_EQ(p[2], 30);
      }
      ctx.Barrier(0);
    });
    EXPECT_EQ(rt.Read<int>(a + 4), 20) << ProtocolVariantName(v);
  }
}

}  // namespace
}  // namespace cashmere
