// Protocol-level behavioural tests: timestamps, fetch coalescing, twin
// lifecycle, write-notice-driven invalidation, flush skip rules. Each test
// drives the runtime with plain accesses (faults arrive through SIGSEGV)
// and checks the protocol's behaviour through its counters and results.
#include <gtest/gtest.h>

#include <atomic>

#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config PConfig(int nodes, int ppn, ProtocolVariant v = ProtocolVariant::kTwoLevel) {
  Config cfg;
  cfg.protocol = v;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 512 * 1024;
  cfg.superpage_pages = 4;
  cfg.cost.time_scale = 5.0;
  cfg.first_touch = false;
  return cfg;
}

TEST(ProtocolTest, IntraNodeFetchCoalescing) {
  // Two processors of the same node read a remote page; the paper's
  // two-level protocol coalesces this into a single page transfer.
  Runtime rt(PConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  // Home of page 0 is unit 0; make unit 0 write it, then have both unit-1
  // processors read it after a barrier.
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 64; ++i) {
        p[i] = i + 1;
      }
    }
    ctx.Barrier(0);
    if (ctx.node() == 1) {
      long sum = 0;
      for (int i = 0; i < 64; ++i) {
        sum += p[i];
      }
      EXPECT_EQ(sum, 64L * 65 / 2);
    }
    ctx.Barrier(0);
  });
  // Exactly one transfer for unit 1's two readers (plus none for unit 0,
  // which is home). The break-exclusive reply counts as that transfer.
  EXPECT_EQ(rt.report().total.Get(Counter::kPageTransfers), 1u);
}

TEST(ProtocolTest, RepeatedReadsAfterInvalidationRefetch) {
  Runtime rt(PConfig(2, 1));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  constexpr int kRounds = 6;
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int r = 1; r <= kRounds; ++r) {
      if (ctx.proc() == 0) {
        p[0] = r;
      }
      ctx.Barrier(0);
      if (ctx.proc() == 1) {
        EXPECT_EQ(p[0], r);
      }
      ctx.Barrier(0);
    }
  });
  // Reader must have fetched at least once per producer round after the
  // first (write notices force invalidation).
  EXPECT_GE(rt.report().total.Get(Counter::kPageTransfers),
            static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_GT(rt.report().total.Get(Counter::kWriteNotices), 0u);
}

TEST(ProtocolTest, UnsharedPagesIncurNoWriteNotices) {
  // Each processor works on its own page-aligned slab: after the initial
  // cold faults there is no sharing, hence no write notices at barriers
  // (exclusive mode, Section 2.4.1).
  Runtime rt(PConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(4 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* mine = ctx.Ptr<int>(a + static_cast<GlobalAddr>(ctx.proc()) * kPageBytes);
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 128; ++i) {
        mine[i] += round + i;
      }
      ctx.Barrier(0);
    }
  });
  EXPECT_EQ(rt.report().total.Get(Counter::kWriteNotices), 0u);
  EXPECT_GT(rt.report().total.Get(Counter::kExclTransitions), 0u);
}

TEST(ProtocolTest, TwinCreatedOnlyForSharedWrites) {
  Runtime rt(PConfig(2, 1));
  const GlobalAddr priv = rt.heap().AllocPageAligned(kPageBytes);
  const GlobalAddr shared = rt.heap().AllocPageAligned(kPageBytes);
  rt.Run([&](Context& ctx) {
    // Both touch the shared page (write each round); only proc 1 touches
    // the private page.
    int* s = ctx.Ptr<int>(shared);
    for (int round = 0; round < 3; ++round) {
      s[ctx.proc()] = round;
      if (ctx.proc() == 1) {
        int* p = ctx.Ptr<int>(priv);
        p[0] = round;
      }
      ctx.Barrier(0);
    }
  });
  // Twins exist for the shared page's non-home writer; the private page
  // stays in exclusive mode with no twin.
  EXPECT_GT(rt.report().total.Get(Counter::kTwinCreations), 0u);
}

TEST(ProtocolTest, FlushUpdatesPreventRedundantFlushes) {
  // Two processors on one node dirty the same page, then hit a barrier:
  // the last arriving local writer flushes once (flush-update), the other
  // skips. Page flush count for that page should be far below 2 per round.
  Runtime rt(PConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  constexpr int kRounds = 8;
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int round = 0; round < kRounds; ++round) {
      if (ctx.node() == 1) {
        p[16 + ctx.local_index()] = round;  // two writers, same page
      }
      ctx.Barrier(0);
      if (ctx.node() == 0 && ctx.local_index() == 0) {
        EXPECT_EQ(p[16], round);
        EXPECT_EQ(p[17], round);
      }
      ctx.Barrier(0);
    }
  });
  const auto flushes = rt.report().total.Get(Counter::kPageFlushes);
  EXPECT_GT(flushes, 0u);
  // Two writers per round would naively flush 2x per round; the last-writer
  // rule and flush timestamps keep it well under that (some slack for
  // break-exclusive full-page flushes and race-y rounds).
  EXPECT_LE(flushes, static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GT(rt.report().total.Get(Counter::kFlushUpdates), 0u);
}

TEST(ProtocolTest, IncomingDiffPreservesConcurrentLocalWrites) {
  // False sharing across nodes: node 0 writes the low half of a page, node
  // 1 the high half, with per-half locks. Both halves must survive.
  Runtime rt(PConfig(2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
  constexpr int kRounds = 10;
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    const int base = ctx.node() == 0 ? 0 : 1024;
    for (int round = 0; round < kRounds; ++round) {
      ctx.LockAcquire(ctx.node());
      p[base + ctx.local_index() * 4] += 1;
      ctx.LockRelease(ctx.node());
      ctx.Poll();
    }
    ctx.Barrier(0);
  });
  EXPECT_EQ(rt.Read<int>(a + 0 * 4), kRounds);
  EXPECT_EQ(rt.Read<int>(a + 4 * 4), kRounds);
  EXPECT_EQ(rt.Read<int>(a + 1024 * 4), kRounds);
  EXPECT_EQ(rt.Read<int>(a + 1028 * 4), kRounds);
}

TEST(ProtocolTest, MigratoryCounterThroughLocks) {
  // Classic migratory sharing: a counter updated under one lock by all 16
  // processors must equal the total number of increments.
  Runtime rt(PConfig(4, 4));
  const GlobalAddr a = rt.AllocArray<long>(1);
  constexpr int kIncrements = 12;
  rt.Run([&](Context& ctx) {
    for (int i = 0; i < kIncrements; ++i) {
      ctx.LockAcquire(0);
      long* p = ctx.Ptr<long>(a);
      *p = *p + 1;
      ctx.LockRelease(0);
      ctx.Poll();
    }
  });
  EXPECT_EQ(rt.Read<long>(a), static_cast<long>(kIncrements) * 16);
}

TEST(ProtocolTest, StatsBalanceAcrossFetchAndFlush) {
  Runtime rt(PConfig(4, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int round = 0; round < 4; ++round) {
      for (int i = ctx.proc(); i < 8 * 2048; i += ctx.total_procs()) {
        p[i] = round + i;
      }
      ctx.Barrier(0);
    }
  });
  const Stats& s = rt.report().total;
  EXPECT_GT(s.Get(Counter::kReadFaults) + s.Get(Counter::kWriteFaults), 0u);
  EXPECT_GT(s.Get(Counter::kDirectoryUpdates), 0u);
  EXPECT_GT(s.Get(Counter::kDataBytes), 0u);
  // Every fetch moved at least a page of data.
  EXPECT_GE(s.Get(Counter::kDataBytes), s.Get(Counter::kPageTransfers) * kPageBytes / 2);
}

}  // namespace
}  // namespace cashmere
