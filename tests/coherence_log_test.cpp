// Unit tests for the async release-path coherence log
// (protocol/coherence_log.hpp): ring full/empty/wraparound, the acquire
// gate's off-by-one edges, agent shutdown with a non-empty log
// (drain-before-exit), the sequence-vector fold helpers, and a TSan-able
// MPSC stress of concurrent publishers against one drainer.
#include "cashmere/protocol/coherence_log.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "cashmere/common/config.hpp"
#include "cashmere/runtime/runtime.hpp"

namespace cashmere {
namespace {

std::uint64_t PublishPage(CoherenceLog& log, PageId page, VirtTime vt,
                          bool* stalled = nullptr) {
  return log.Publish(
      [&](CoherenceRecord& rec) {
        rec.page = page;
        rec.publish_vt = vt;
        rec.has_diff = false;
      },
      stalled);
}

TEST(CoherenceLogTest, StartsEmpty) {
  CoherenceLog log(8);
  EXPECT_TRUE(log.Empty());
  EXPECT_FALSE(log.Full());
  EXPECT_EQ(log.Peek(), nullptr);
  EXPECT_EQ(log.published_seq(), 0u);
  EXPECT_EQ(log.applied_seq(), 0u);
}

TEST(CoherenceLogTest, PublishPeekPopRoundTrip) {
  CoherenceLog log(8);
  const std::uint64_t seq = PublishPage(log, /*page=*/7, /*vt=*/100);
  EXPECT_EQ(seq, 1u);
  EXPECT_FALSE(log.Empty());

  const CoherenceRecord* rec = log.Peek();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->page, 7u);
  EXPECT_EQ(rec->seq, 1u);
  EXPECT_EQ(rec->publish_vt, 100u);

  log.PopApplied(/*applied_vt=*/250);
  EXPECT_TRUE(log.Empty());
  EXPECT_EQ(log.applied_seq(), 1u);
  EXPECT_EQ(log.Peek(), nullptr);
  EXPECT_EQ(log.AppliedVtOf(1), 250u);
}

TEST(CoherenceLogTest, FullAtCapacityAndDrains) {
  CoherenceLog log(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(log.Full());
    PublishPage(log, static_cast<PageId>(i), static_cast<VirtTime>(i));
  }
  EXPECT_TRUE(log.Full());
  // Draining one slot reopens the ring for exactly one more publish.
  log.PopApplied(10);
  EXPECT_FALSE(log.Full());
  PublishPage(log, 4, 4);
  EXPECT_TRUE(log.Full());
}

TEST(CoherenceLogTest, PublisherStallsOnFullRingUntilDrained) {
  CoherenceLog log(2);
  PublishPage(log, 0, 0);
  PublishPage(log, 1, 1);
  ASSERT_TRUE(log.Full());

  // The blocked publish must complete once a concurrent drain frees a slot,
  // and must report the stall.
  bool stalled = false;
  std::atomic<bool> entered{false};
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    entered.store(true, std::memory_order_release);
    PublishPage(log, 2, 2, &stalled);
    published.store(true, std::memory_order_release);
  });
  // Give the publisher time to actually reach the full-ring check before
  // draining, so the stall path is exercised (not just the fast path).
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The publisher cannot make progress while the ring is full.
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  log.PopApplied(5);
  publisher.join();
  EXPECT_TRUE(published.load());
  EXPECT_TRUE(stalled);
  EXPECT_EQ(log.published_seq(), 3u);
}

TEST(CoherenceLogTest, WraparoundPreservesSequenceOrder) {
  CoherenceLog log(4);
  // Push 3 rounds of the 4-slot ring through publish/apply; pages and
  // sequences must stay paired across the wrap.
  std::uint64_t expect_seq = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      const PageId page = static_cast<PageId>(round * 4 + i);
      EXPECT_EQ(PublishPage(log, page, page), ++expect_seq);
    }
    for (int i = 0; i < 4; ++i) {
      const CoherenceRecord* rec = log.Peek();
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->page, static_cast<PageId>(round * 4 + i));
      EXPECT_EQ(rec->seq, log.applied_seq() + 1);
      log.PopApplied(static_cast<VirtTime>(rec->page) * 10);
    }
    EXPECT_TRUE(log.Empty());
  }
  EXPECT_EQ(log.published_seq(), 12u);
  EXPECT_EQ(log.applied_seq(), 12u);
}

// The acquire gate's exact edge: an acquirer that observed sequence s waits
// until applied_seq >= s — not s - 1 (too early: the record's write notices
// may be unposted) and not s + 1 (would deadlock on the last record).
TEST(CoherenceLogTest, GateOffByOneEdges) {
  CoherenceLog log(8);
  PublishPage(log, 0, 10);
  PublishPage(log, 1, 20);

  // Nothing applied: a gate on seq 1 must not pass.
  EXPECT_LT(log.applied_seq(), 1u);

  log.PopApplied(100);
  // Exactly seq 1 applied: a gate on 1 passes, a gate on 2 must not.
  EXPECT_GE(log.applied_seq(), 1u);
  EXPECT_LT(log.applied_seq(), 2u);
  EXPECT_EQ(log.AppliedVtOf(1), 100u);
  // Gate time of a not-yet-applied sequence is unknown (0 = conservative).
  EXPECT_EQ(log.AppliedVtOf(2), 0u);

  log.PopApplied(200);
  EXPECT_GE(log.applied_seq(), 2u);
  EXPECT_EQ(log.AppliedVtOf(2), 200u);
}

TEST(CoherenceLogTest, AppliedVtWrapsConservatively) {
  CoherenceLog log(2);  // gate ring is 4x the record ring = 8 slots
  for (std::uint64_t s = 1; s <= 20; ++s) {
    PublishPage(log, static_cast<PageId>(s), s);
    log.PopApplied(s * 100);
  }
  // Recent sequences still resolve; wrapped-past ones return 0 (the gater
  // then skips the clock reconciliation — conservative, never early).
  EXPECT_EQ(log.AppliedVtOf(20), 2000u);
  EXPECT_EQ(log.AppliedVtOf(13), 1300u);
  EXPECT_EQ(log.AppliedVtOf(5), 0u);
}

TEST(CoherenceLogTest, SeqVectorFoldHelpers) {
  constexpr int kUnits = 4;
  std::atomic<std::uint64_t> shared[kUnits] = {};
  std::uint64_t mine[kUnits] = {5, 0, 7, 2};
  PublishSeqVector(shared, mine, kUnits);
  // Max-fold: a second publisher with smaller entries must not regress.
  std::uint64_t other[kUnits] = {3, 9, 1, 2};
  PublishSeqVector(shared, other, kUnits);
  EXPECT_EQ(shared[0].load(), 5u);
  EXPECT_EQ(shared[1].load(), 9u);
  EXPECT_EQ(shared[2].load(), 7u);
  EXPECT_EQ(shared[3].load(), 2u);

  std::uint64_t acquirer[kUnits] = {6, 1, 0, 0};
  MergeSeqVector(acquirer, shared, kUnits);
  EXPECT_EQ(acquirer[0], 6u);  // own later observation wins
  EXPECT_EQ(acquirer[1], 9u);
  EXPECT_EQ(acquirer[2], 7u);
  EXPECT_EQ(acquirer[3], 2u);
}

TEST(CoherenceEngineTest, OneLogPerUnit) {
  Config cfg;
  cfg.nodes = 4;
  cfg.procs_per_node = 2;
  cfg.async.release = true;
  cfg.Validate();
  CoherenceEngine engine(cfg);
  EXPECT_EQ(engine.units(), cfg.units());
  EXPECT_EQ(engine.LogOf(0).capacity(), kCoherenceLogEntries);
  EXPECT_TRUE(engine.AllEmpty());
  PublishPage(engine.LogOf(1), 3, 30);
  EXPECT_FALSE(engine.AllEmpty());
  engine.LogOf(1).PopApplied(60);
  EXPECT_TRUE(engine.AllEmpty());
}

// Agent shutdown with a non-empty log: Runtime::Run sets the agents' stop
// flag only after the processor threads joined, and the agent loop honours
// stop only on an empty Peek — so records published right up to the end of
// the run are applied, never abandoned. Exercised end-to-end: a run whose
// final releases publish records, then CopyOut checks the master copies.
TEST(CoherenceEngineTest, RunDrainsLogsBeforeExit) {
  Config cfg;
  cfg.nodes = 2;
  cfg.procs_per_node = 2;
  cfg.heap_bytes = 16 * kPageBytes;
  cfg.first_touch = false;
  cfg.async.release = true;

  Runtime rt(cfg);
  constexpr int kInts = 64;
  const GlobalAddr data = rt.AllocArray<int>(kInts);
  rt.Run([&](Context& ctx) {
    int* p = ctx.Ptr<int>(data);
    // Every processor writes its stripe; the final ReleaseSync publishes
    // the last records with no later acquire to gate on them.
    for (int i = ctx.proc(); i < kInts; i += ctx.total_procs()) {
      p[i] = i * 3 + 1;
    }
  });
  ASSERT_NE(rt.coherence(), nullptr);
  EXPECT_TRUE(rt.coherence()->AllEmpty());
  for (int i = 0; i < kInts; ++i) {
    EXPECT_EQ(rt.Read<int>(data + static_cast<GlobalAddr>(i) * sizeof(int)),
              i * 3 + 1)
        << "index " << i;
  }
  EXPECT_EQ(rt.report().total.Get(Counter::kCohLogPublishes),
            rt.report().total.Get(Counter::kCohLogApplies));
}

// MPSC stress: several publisher threads race one drainer through a tiny
// ring. Run under TSan this exercises the publish/apply memory ordering;
// the assertions check lossless, in-order, exactly-once delivery.
TEST(CoherenceLogStressTest, ConcurrentPublishersOneDrainer) {
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 2000;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kPublishers) * kPerPublisher;
  CoherenceLog log(8);

  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> seen_pages;
  seen_pages.reserve(kTotal);
  std::thread drainer([&] {
    Backoff backoff;
    while (true) {
      const CoherenceRecord* rec = log.Peek();
      if (rec == nullptr) {
        if (stop.load(std::memory_order_acquire)) {
          break;  // drain-before-exit: only stop on an empty log
        }
        backoff.Pause();
        continue;
      }
      backoff.Reset();
      EXPECT_EQ(rec->seq, log.applied_seq() + 1);
      seen_pages.push_back(rec->page);
      log.PopApplied(rec->publish_vt + 1);
    }
  });

  std::vector<std::thread> publishers;
  std::atomic<std::uint64_t> stalls{0};
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&, t] {
      for (int i = 0; i < kPerPublisher; ++i) {
        bool stalled = false;
        const PageId page = static_cast<PageId>(t * kPerPublisher + i);
        PublishPage(log, page, page, &stalled);
        if (stalled) {
          stalls.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : publishers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  drainer.join();

  EXPECT_TRUE(log.Empty());
  EXPECT_EQ(log.published_seq(), kTotal);
  EXPECT_EQ(log.applied_seq(), kTotal);
  ASSERT_EQ(seen_pages.size(), kTotal);
  // Exactly-once: every page value delivered once; per-publisher order
  // preserved (each publisher's pages ascend in the drained stream).
  std::vector<int> next(kPublishers, 0);
  for (const std::uint64_t page : seen_pages) {
    const int t = static_cast<int>(page) / kPerPublisher;
    ASSERT_LT(t, kPublishers);
    EXPECT_EQ(static_cast<int>(page) % kPerPublisher, next[t]);
    ++next[t];
  }
  for (int t = 0; t < kPublishers; ++t) {
    EXPECT_EQ(next[t], kPerPublisher);
  }
  // A 8-slot ring under 4 publishers must have exercised the full path.
  EXPECT_GT(stalls.load(), 0u);
}

}  // namespace
}  // namespace cashmere
