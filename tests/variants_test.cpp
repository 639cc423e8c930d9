// Protocol-variant behavioural tests: 2LS shootdowns, 1L write-doubling
// cost accounting, the global-lock ablation, home-node optimization,
// interrupt-mode delivery costs, and release-propagation parity.
#include <gtest/gtest.h>

#include "cashmere/common/spin.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

Config VConfig(ProtocolVariant v, int nodes, int ppn) {
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

// A deterministic false-sharing workload with a *concurrent* local writer:
// processor 1 (node 0) writes its word and holds the write mapping (it
// never synchronizes mid-round; a harness-level atomic — not DSM — tells
// the others it wrote). Processor 3 (node 1, the page's home) updates a
// third word and releases; processor 0 (node 0) then takes the write
// notice and must update node 0's copy while processor 1 still holds a
// write mapping: 2L merges with an incoming diff, 2LS shoots processor 1
// down — exactly the Sections 2.5/2.6 scenario. The page is in superpage 1
// (home unit 1), so node 0's processors are not at the master and use
// twins.
void ConcurrentWriterWorkload(Runtime& rt, GlobalAddr a, int rounds) {
  std::atomic<int> go1{1};
  std::atomic<int> done1{0};
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    Backoff backoff;
    // Warm-up: everyone reads the page so nobody claims exclusive mode.
    (void)p[0];
    ctx.Barrier(0);
    for (int round = 1; round <= rounds; ++round) {
      if (ctx.proc() == 1) {
        // Concurrent local writer: writes its word, then holds the write
        // mapping (it performs no DSM synchronization inside the round, so
        // nothing downgrades it; a harness-level atomic sequences rounds).
        while (go1.load(std::memory_order_acquire) < round) {
          ctx.Poll();
          backoff.Pause();
        }
        p[64] += 1;
        done1.store(round, std::memory_order_release);
      } else if (ctx.proc() == 0) {
        while (done1.load(std::memory_order_acquire) < round) {
          ctx.Poll();
          backoff.Pause();
        }
        ctx.FlagSet(2, static_cast<std::uint64_t>(round));
      } else if (ctx.proc() == 3) {
        ctx.FlagWaitGe(2, static_cast<std::uint64_t>(round));
        p[128] += 1;  // home-unit writer: master updated directly
        ctx.FlagSet(3, static_cast<std::uint64_t>(round));
      }
      if (ctx.proc() == 0) {
        ctx.FlagWaitGe(3, static_cast<std::uint64_t>(round));
        // This read faults (the write notice invalidated node 0's copy)
        // while processor 1 still holds its write mapping: the update must
        // merge (2L incoming diff) or shoot processor 1 down (2LS).
        EXPECT_EQ(p[128], round);
        go1.store(round + 1, std::memory_order_release);
      }
      ctx.Poll();
    }
    ctx.Barrier(0);
  });
}

TEST(VariantsTest, ShootdownProtocolRecordsShootdowns) {
  Runtime rt(VConfig(ProtocolVariant::kTwoLevelShootdown, 2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes) + 4 * kPageBytes;
  constexpr int kRounds = 10;
  ConcurrentWriterWorkload(rt, a, kRounds);
  
  EXPECT_EQ(rt.Read<int>(a + 64 * 4), kRounds);
  EXPECT_EQ(rt.Read<int>(a + 128 * 4), kRounds);
  // 2LS shoots down the concurrent local writer instead of merging.
  EXPECT_GT(rt.report().total.Get(Counter::kShootdowns), 0u);
  EXPECT_EQ(rt.report().total.Get(Counter::kIncomingDiffs), 0u);
}

TEST(VariantsTest, TwoLevelUsesIncomingDiffsInsteadOfShootdowns) {
  Runtime rt(VConfig(ProtocolVariant::kTwoLevel, 2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes) + 4 * kPageBytes;
  constexpr int kRounds = 10;
  ConcurrentWriterWorkload(rt, a, kRounds);
  
  EXPECT_EQ(rt.Read<int>(a + 64 * 4), kRounds);
  EXPECT_EQ(rt.Read<int>(a + 128 * 4), kRounds);
  EXPECT_EQ(rt.report().total.Get(Counter::kShootdowns), 0u);
  EXPECT_GT(rt.report().total.Get(Counter::kIncomingDiffs), 0u);
}

TEST(VariantsTest, ShootdownCreatesMoreTwins) {
  // 2LS discards the twin at every flush and recreates it on the next
  // write fault (Section 2.6), so it performs at least as many twin
  // creations as 2L on the same workload.
  const int rounds = 10;
  std::uint64_t twins_2l = 0;
  std::uint64_t twins_2ls = 0;
  {
    Runtime rt(VConfig(ProtocolVariant::kTwoLevel, 2, 2));
    const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes) + 4 * kPageBytes;
    ConcurrentWriterWorkload(rt, a, rounds);
    twins_2l = rt.report().total.Get(Counter::kTwinCreations);
  }
  {
    Runtime rt(VConfig(ProtocolVariant::kTwoLevelShootdown, 2, 2));
    const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes) + 4 * kPageBytes;
    ConcurrentWriterWorkload(rt, a, rounds);
    twins_2ls = rt.report().total.Get(Counter::kTwinCreations);
  }
  EXPECT_GE(twins_2ls, twins_2l);
}

TEST(VariantsTest, WriteDoublingChargesDoublingCategory) {
  Runtime rt(VConfig(ProtocolVariant::kOneLevelWriteDouble, 2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(2 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int round = 0; round < 4; ++round) {
      for (int i = ctx.proc(); i < 4096; i += ctx.total_procs()) {
        p[i] = round + i;
      }
      ctx.Barrier(0);
    }
  });
  const Stats& s = rt.report().total;
  EXPECT_GT(s.time_ns[static_cast<int>(TimeCategory::kWriteDoubling)], 0u);
}

TEST(VariantsTest, OneLevelDiffDoesNotChargeDoubling) {
  Runtime rt(VConfig(ProtocolVariant::kOneLevelDiff, 2, 2));
  const GlobalAddr a = rt.heap().AllocPageAligned(2 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int round = 0; round < 4; ++round) {
      for (int i = ctx.proc(); i < 4096; i += ctx.total_procs()) {
        p[i] = round + i;
      }
      ctx.Barrier(0);
    }
  });
  EXPECT_EQ(rt.report().total.time_ns[static_cast<int>(TimeCategory::kWriteDoubling)], 0u);
}

TEST(VariantsTest, GlobalLockAblationCostsMorePerDirectoryUpdate) {
  // The lock-based variant charges 16 us instead of 5 us per directory
  // update. Processor 0 alone reads and then writes `pages` pages, so a
  // run's protocol paths do not depend on the schedule. Both variants run
  // two sizes with the same synchronization: the difference prices the
  // extra pages' directory updates, and the global-lock variant's
  // per-acquire lock charge cancels out of it.
  auto run = [](ProtocolVariant v, int pages) {
    Runtime rt(VConfig(v, 2, 2));
    const GlobalAddr a = rt.heap().AllocPageAligned(4 * kPageBytes);
    const int words = pages * static_cast<int>(kPageBytes / sizeof(int));
    rt.Run([&](Context& ctx) {
      int* p = ctx.Ptr<int>(a);
      for (int round = 0; round < 2; ++round) {
        if (ctx.proc() == 0) {
          long sum = 0;
          for (int i = 0; i < words; ++i) {
            sum += p[i];
          }
          for (int i = 0; i < words; ++i) {
            p[i] = static_cast<int>(sum) + round + i;
          }
        }
        ctx.Barrier(0);
      }
    });
    return rt.report();
  };
  const auto per_update = [&](ProtocolVariant v) {
    const Stats small = run(v, 2).total;
    const Stats large = run(v, 4).total;
    const auto protocol_ns = [](const Stats& s) {
      return static_cast<double>(s.time_ns[static_cast<int>(TimeCategory::kProtocol)]);
    };
    const auto updates = [](const Stats& s) {
      return static_cast<double>(s.Get(Counter::kDirectoryUpdates));
    };
    EXPECT_GT(updates(large), updates(small));
    return (protocol_ns(large) - protocol_ns(small)) / (updates(large) - updates(small));
  };
  EXPECT_GT(per_update(ProtocolVariant::kTwoLevelGlobalLock),
            per_update(ProtocolVariant::kTwoLevel));
}

TEST(VariantsTest, HomeOptSharesMasterFramesWithinNode) {
  // One-level with home-opt: a processor on the home processor's node
  // works directly on the master frame — no page transfers for it.
  Config cfg = VConfig(ProtocolVariant::kOneLevelDiff, 2, 2);
  cfg.home_opt = true;
  Runtime rt(cfg);
  const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);  // home: unit 0
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    if (ctx.proc() == 0) {
      for (int i = 0; i < 128; ++i) {
        p[i] = i;
      }
    }
    ctx.Barrier(0);
    if (ctx.proc() == 1) {  // same SMP node as home processor 0
      long sum = 0;
      for (int i = 0; i < 128; ++i) {
        sum += p[i];
      }
      EXPECT_EQ(sum, 127L * 128 / 2);
    }
    ctx.Barrier(0);
  });
  // Processor 1 read through the shared master frame: at most the remote
  // node's processors needed transfers, and they did not touch the page.
  EXPECT_EQ(rt.report().total.Get(Counter::kPageTransfers), 0u);
}

TEST(VariantsTest, HomeOptCorrectAcrossNodes) {
  Config cfg = VConfig(ProtocolVariant::kOneLevelDiff, 2, 2);
  cfg.home_opt = true;
  Runtime rt(cfg);
  const GlobalAddr a = rt.heap().AllocPageAligned(2 * kPageBytes);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    p[ctx.proc() * 128] = ctx.proc() + 1;
    ctx.Barrier(0);
    for (int q = 0; q < ctx.total_procs(); ++q) {
      EXPECT_EQ(p[q * 128], q + 1);
    }
    ctx.Barrier(0);
  });
}

TEST(VariantsTest, InterruptDeliveryCostsMoreThanPolling) {
  auto run = [](DeliveryMode mode) {
    Config cfg = VConfig(ProtocolVariant::kTwoLevel, 2, 1);
    cfg.delivery = mode;
    Runtime rt(cfg);
    const GlobalAddr a = rt.heap().AllocPageAligned(kPageBytes);
    rt.Run([&](Context& ctx) {
      int* p = ctx.Ptr<int>(a);
      for (int round = 1; round <= 6; ++round) {
        if (ctx.proc() == 0) {
          p[round] = round;
        }
        ctx.Barrier(0);
        if (ctx.proc() == 1) {
          EXPECT_EQ(p[round], round);
        }
        ctx.Barrier(0);
      }
    });
    return rt.report().exec_time_ns;
  };
  const VirtTime polling = run(DeliveryMode::kPolling);
  const VirtTime interrupts = run(DeliveryMode::kInterrupt);
  EXPECT_GT(interrupts, polling);
}

// Every release flush goes through one Propagate, on the releaser or on
// the cache agent, so each variant books one flush and one write notice
// per release of a page with one remote sharer, in both drain policies.
// Three nodes of one processor: the page lives in superpage 1 (home unit
// 1), processor 0 writes it each round and processor 2 reads it, each
// step ending at a barrier. Everyone reads the page first, so processor 0
// never claims exclusive mode, and processor 2 is a sharer at every flush.
TEST(VariantsTest, ReleasePropagationParity) {
  constexpr int kRounds = 5;
  constexpr Counter kCompared[] = {
      Counter::kReadFaults,     Counter::kWriteFaults,       Counter::kPageTransfers,
      Counter::kWriteNotices,   Counter::kTwinCreations,     Counter::kFlushUpdates,
      Counter::kPageFlushes,    Counter::kDiffRunsEmitted,   Counter::kDiffRunBytes,
      Counter::kDiffRunApplyBytes};
  for (const ProtocolVariant v :
       {ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown,
        ProtocolVariant::kTwoLevelGlobalLock, ProtocolVariant::kOneLevelDiff,
        ProtocolVariant::kOneLevelWriteDouble}) {
    Stats totals[2];
    for (const bool async : {false, true}) {
      SCOPED_TRACE(::testing::Message() << ProtocolVariantName(v) << " async=" << async);
      Config cfg = VConfig(v, 3, 1);
      cfg.async.release = async;
      Runtime rt(cfg);
      const GlobalAddr a = rt.heap().AllocPageAligned(8 * kPageBytes) + 4 * kPageBytes;
      rt.Run([&](Context& ctx) {
        int* p = ctx.Ptr<int>(a);
        EXPECT_EQ(p[0], 0);
        ctx.Barrier(0);
        for (int round = 1; round <= kRounds; ++round) {
          if (ctx.proc() == 0) {
            p[round] = round;
          }
          ctx.Barrier(0);
          if (ctx.proc() == 2) {
            EXPECT_EQ(p[round], round);
          }
          ctx.Barrier(0);
        }
      });
      const Stats& s = rt.report().total;
      EXPECT_EQ(s.Get(Counter::kPageFlushes), static_cast<std::uint64_t>(kRounds));
      EXPECT_EQ(s.Get(Counter::kWriteNotices), static_cast<std::uint64_t>(kRounds));
      EXPECT_EQ(s.Get(Counter::kDiffRunBytes), s.Get(Counter::kDiffRunApplyBytes));
      totals[async ? 1 : 0] = s;
    }
    for (const Counter c : kCompared) {
      EXPECT_EQ(totals[0].Get(c), totals[1].Get(c))
          << ProtocolVariantName(v) << ": " << CounterName(c);
    }
  }
}

}  // namespace
}  // namespace cashmere
