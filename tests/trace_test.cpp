// TraceRing / TraceLog unit tests: wraparound and drop accounting, the
// thread-binding emit path, merge ordering, concurrent single-writer
// appends (the TSan target for the lock-free ring discipline), and the
// Stats exposure of the ring counters through a traced Runtime run.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cashmere/common/trace.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

TraceEvent Ev(std::uint32_t i, std::uint16_t proc = 0) {
  TraceEvent e;
  e.vt = i;
  e.a0 = i;
  e.proc = proc;
  e.kind = static_cast<std::uint8_t>(EventKind::kMcWrite);
  return e;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
  EXPECT_EQ(TraceRing(1024).capacity(), 1024u);
}

TEST(TraceRingTest, RetainsAppendOrderBeforeWrap) {
  TraceRing ring(16);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.Append(Ev(i));
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> out;
  ring.Snapshot(out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].a0, i);
  }
}

TEST(TraceRingTest, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    ring.Append(Ev(i));
  }
  EXPECT_EQ(ring.total(), 40u);
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.dropped(), 24u);
  // The retained window is the most recent capacity() events, oldest first.
  std::vector<TraceEvent> out;
  ring.Snapshot(out);
  ASSERT_EQ(out.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i].a0, 24 + i);
  }
}

TEST(TraceRingTest, ResetClearsCounters) {
  TraceRing ring(4);
  for (std::uint32_t i = 0; i < 9; ++i) {
    ring.Append(Ev(i));
  }
  EXPECT_GT(ring.dropped(), 0u);
  ring.Reset();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceBindingTest, UnboundThreadEmitsNothing) {
  ASSERT_FALSE(TraceActive());
  TraceEmit(EventKind::kMcWrite, kNoTracePage, 0, 1, 2);  // must be a no-op
  EXPECT_FALSE(TraceActive());
}

TEST(TraceBindingTest, BoundEmitStampsClockAndProc) {
  TraceRing ring(8);
  VirtualClock clock;
  clock.Start(1.0);
  TraceBindThread(&ring, &clock, /*proc=*/5);
  EXPECT_TRUE(TraceActive());
  TraceEmit(EventKind::kPageCopy, /*page=*/7, /*seq=*/3, /*a0=*/11, /*a1=*/13);
  TraceUnbindThread();
  EXPECT_FALSE(TraceActive());
  std::vector<TraceEvent> out;
  ring.Snapshot(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].proc, 5u);
  EXPECT_EQ(out[0].page, 7u);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[0].a0, 11u);
  EXPECT_EQ(out[0].a1, 13u);
  EXPECT_EQ(static_cast<EventKind>(out[0].kind), EventKind::kPageCopy);
}

TEST(TraceLogTest, MergedOrdersByVirtualTimeThenProc) {
  TraceLog log(2, 8);
  log.ring(0).Append(Ev(10, 0));
  log.ring(0).Append(Ev(30, 0));
  log.ring(1).Append(Ev(20, 1));
  log.ring(1).Append(Ev(30, 1));
  const std::vector<TraceEvent> merged = log.Merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].vt, 10u);
  EXPECT_EQ(merged[1].vt, 20u);
  EXPECT_EQ(merged[2].vt, 30u);
  EXPECT_EQ(merged[2].proc, 0u);  // vt tie broken by proc
  EXPECT_EQ(merged[3].proc, 1u);
}

// The TSan target: every ring has exactly one writer appending while another
// thread polls the atomic counters. This is the production discipline — the
// Runtime binds one thread per ring — so a race here is a real protocol bug.
TEST(TraceRingStressTest, ConcurrentSingleWriterAppendsWithCounterPolls) {
  constexpr int kWriters = 4;
  constexpr std::uint32_t kPerWriter = 20000;
  TraceLog log(kWriters, 1 << 10);
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t n = log.TotalEvents();
      EXPECT_GE(n, last);  // totals are monotone under concurrent appends
      last = n;
      (void)log.TotalDropped();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint32_t i = 0; i < kPerWriter; ++i) {
        log.ring(w).Append(Ev(i, static_cast<std::uint16_t>(w)));
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_EQ(log.TotalEvents(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(log.ring(w).dropped(), kPerWriter - log.ring(w).capacity());
    std::vector<TraceEvent> out;
    log.ring(w).Snapshot(out);
    ASSERT_EQ(out.size(), log.ring(w).capacity());
    // The retained tail is contiguous and in append order.
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_EQ(out[i].a0, out[i - 1].a0 + 1);
    }
  }
}

Config TracedConfig(std::uint32_t ring_events) {
  Config cfg;
  cfg.nodes = 2;
  cfg.procs_per_node = 2;
  cfg.heap_bytes = 1 * 1024 * 1024;
  cfg.superpage_pages = 4;
  cfg.cost.time_scale = 10.0;
  cfg.first_touch = false;
  cfg.trace.enabled = true;
  cfg.trace.ring_events = ring_events;
  return cfg;
}

TEST(RuntimeTraceTest, StatsExposeRingCounters) {
  Runtime rt(TracedConfig(1 << 14));
  const GlobalAddr a = rt.AllocArray<int>(4096);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int i = ctx.proc(); i < 4096; i += ctx.total_procs()) {
      p[i] = i;
    }
    ctx.Barrier(0);
  });
  ASSERT_NE(rt.trace_log(), nullptr);
  const StatsReport& report = rt.report();
  EXPECT_GT(report.total.Get(Counter::kTraceEvents), 0u);
  EXPECT_EQ(report.total.Get(Counter::kTraceEvents), rt.trace_log()->TotalEvents());
  EXPECT_EQ(report.total.Get(Counter::kTraceDrops), rt.trace_log()->TotalDropped());
}

// Every directory update emits one kDirUpdate whose a0 is the packed
// DirWord the unit wrote (the contention report counts these per page).
TEST(RuntimeTraceTest, DirUpdateCarriesPackedWord) {
  Runtime rt(TracedConfig(1 << 14));
  const GlobalAddr a = rt.AllocArray<int>(4096);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int i = ctx.proc(); i < 4096; i += ctx.total_procs()) {
      p[i] = i;
    }
    ctx.Barrier(0);
  });
  ASSERT_EQ(rt.trace_log()->TotalDropped(), 0u);
  std::uint64_t updates = 0;
  for (const TraceEvent& e : rt.trace_log()->Merged()) {
    if (static_cast<EventKind>(e.kind) != EventKind::kDirUpdate) {
      continue;
    }
    ++updates;
    EXPECT_EQ(DirWord::Unpack(e.a0).Pack(), e.a0);
  }
  EXPECT_GT(updates, 0u);
  EXPECT_EQ(updates, rt.report().total.Get(Counter::kDirectoryUpdates));
}

TEST(RuntimeTraceTest, TinyRingsWrapAndReportDrops) {
  const Config cfg = TracedConfig(/*ring_events=*/8);
  Runtime rt(cfg);
  const GlobalAddr a = rt.AllocArray<int>(4096);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(a);
    for (int i = ctx.proc(); i < 4096; i += ctx.total_procs()) {
      p[i] = i;
    }
    ctx.Barrier(0);
  });
  ASSERT_NE(rt.trace_log(), nullptr);
  EXPECT_GT(rt.report().total.Get(Counter::kTraceDrops), 0u);
  EXPECT_FALSE(rt.trace_log()->complete());
  // The retained tail still snapshots cleanly after the run.
  const std::vector<TraceEvent> merged = rt.trace_log()->Merged();
  // One ring per processor plus one per cache agent when the async release
  // path is on (the default for the lock-free two-level variants).
  const std::size_t rings = static_cast<std::size_t>(
      cfg.total_procs() + (cfg.AsyncRelease() ? cfg.units() : 0));
  EXPECT_LE(merged.size(), rings * 8u);
}

TEST(RuntimeTraceTest, DisabledTracingAllocatesNoLog) {
  Config cfg = TracedConfig(1 << 14);
  cfg.trace.enabled = false;
  Runtime rt(cfg);
  EXPECT_EQ(rt.trace_log(), nullptr);
  const GlobalAddr a = rt.AllocArray<int>(64);
  rt.Run([&](Context& ctx) {
    if (ctx.proc() == 0) {
      ctx.Ptr<int>(a)[0] = 1;
    }
  });
  EXPECT_EQ(rt.report().total.Get(Counter::kTraceEvents), 0u);
}

}  // namespace
}  // namespace cashmere
