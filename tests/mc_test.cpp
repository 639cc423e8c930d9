// Unit tests for the Memory Channel layer: word atomicity, ordered
// broadcast, traffic accounting through the single Issue() funnel, and the
// lock-array use case the synchronization layer depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cashmere/mc/hub.hpp"

namespace cashmere {
namespace {

TEST(McHubTest, Write32AppliesValueAndAccountsTraffic) {
  McHub hub(8);
  std::uint32_t word = 0;
  hub.Issue(McOp::Word(&word, 0xdeadbeef, Traffic::kWriteNotice));
  EXPECT_EQ(LoadWord32(&word), 0xdeadbeefu);
  EXPECT_EQ(hub.BytesSent(Traffic::kWriteNotice), kWordBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kWriteNotice), 1u);
}

TEST(McHubTest, OrderedBroadcastAccountsPerReplica) {
  McHub hub(8);
  std::uint32_t word = 0;
  hub.Issue(McOp::Broadcast(&word, 7, Traffic::kDirectory));
  EXPECT_EQ(LoadWord32(&word), 7u);
  // Broadcast traffic counts one word per replica (8 nodes).
  EXPECT_EQ(hub.BytesSent(Traffic::kDirectory), 8 * kWordBytes);
}

TEST(McHubTest, WriteStreamMovesWholePages) {
  McHub hub(2);
  std::vector<std::uint32_t> src(kWordsPerPage);
  std::vector<std::uint32_t> dst(kWordsPerPage, 0);
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    src[i] = static_cast<std::uint32_t>(i * 3 + 1);
  }
  hub.Issue(McOp::Stream(dst.data(), src.data(), kWordsPerPage, Traffic::kPageData));
  EXPECT_EQ(src, dst);
  EXPECT_EQ(hub.BytesSent(Traffic::kPageData), kPageBytes);
}

TEST(McHubTest, DataBytesCountsOnlyDataClasses) {
  McHub hub(4);
  hub.AccountWrite(Traffic::kPageData, 100);
  hub.AccountWrite(Traffic::kDiffData, 50);
  hub.AccountWrite(Traffic::kWriteNotice, 4);
  hub.AccountWrite(Traffic::kDirectory, 1000);   // excluded
  hub.AccountWrite(Traffic::kSyncObject, 1000);  // excluded
  EXPECT_EQ(hub.DataBytes(), 154u);
  EXPECT_EQ(hub.TotalBytes(), 2154u);
}

TEST(McHubTest, OrderedExchangeReturnsPrevious) {
  McHub hub(4);
  std::uint32_t word = 11;
  EXPECT_EQ(hub.Issue(McOp::Exchange(&word, 22, Traffic::kSyncObject)), 11u);
  EXPECT_EQ(LoadWord32(&word), 22u);
}

// Regression pin for the Issue() refactor: the per-call accounting that
// used to live in Write32/WriteStream/WriteRun/OrderedBroadcast32/
// OrderedExchange32 now derives from McOp::WireBytes in one funnel. This
// fixed op sequence must charge exactly the bytes and write counts the
// per-method arithmetic charged before the transport seam existed —
// deterministic-app counter reports stay byte-identical iff this holds.
TEST(McHubTest, InprocCountersMatchPrePluggableAccounting) {
  constexpr int kUnits = 8;
  McHub hub(kUnits);
  EXPECT_STREQ(hub.transport().name(), "inproc");

  std::uint32_t word = 0;
  std::vector<std::uint32_t> page(kWordsPerPage, 0);
  std::vector<std::uint32_t> src(kWordsPerPage, 0x12345678);

  hub.Issue(McOp::Word(&word, 1, Traffic::kWriteNotice));
  hub.Issue(McOp::Stream(page.data(), src.data(), kWordsPerPage, Traffic::kPageData));
  // Two diff runs: payload bytes only, one write each.
  hub.Issue(McOp::Run(page.data(), 3, src.data(), 7, Traffic::kDiffData));
  hub.Issue(McOp::Run(page.data(), 64, src.data(), 5, Traffic::kDiffData));
  hub.Issue(McOp::Broadcast(&word, 2, Traffic::kDirectory));
  hub.Issue(McOp::Exchange(&word, 3, Traffic::kSyncObject));

  // Pre-PR arithmetic: Write32 -> kWordBytes; WriteStream -> words*4;
  // WriteRun -> nwords*4; ordered ops -> kWordBytes*units.
  // One write count per call regardless of size.
  EXPECT_EQ(hub.BytesSent(Traffic::kWriteNotice), kWordBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kWriteNotice), 1u);
  EXPECT_EQ(hub.BytesSent(Traffic::kPageData), kPageBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kPageData), 1u);
  EXPECT_EQ(hub.BytesSent(Traffic::kDiffData), 7u * kWordBytes + 5u * kWordBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kDiffData), 2u);
  EXPECT_EQ(hub.BytesSent(Traffic::kDirectory), kUnits * kWordBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kDirectory), 1u);
  EXPECT_EQ(hub.BytesSent(Traffic::kSyncObject), kUnits * kWordBytes);
  EXPECT_EQ(hub.WritesSent(Traffic::kSyncObject), 1u);
  EXPECT_EQ(hub.TotalBytes(), kWordBytes + kPageBytes + 7u * kWordBytes +
                                  5u * kWordBytes + 2u * kUnits * kWordBytes);
  EXPECT_EQ(hub.DataBytes(), kPageBytes + 7u * kWordBytes + 5u * kWordBytes + kWordBytes);
}

// MC guarantees that two writes to the same region appear in the same order
// everywhere. With the hub's ordered broadcast, concurrent single-writer
// claims can be arbitrated: each writer sets its slot and reads the array;
// at most one writer can observe itself alone.
TEST(McHubTest, OrderedBroadcastArbitratesConcurrentClaims) {
  for (int round = 0; round < 50; ++round) {
    McHub hub(2);
    std::uint32_t slots[2] = {0, 0};
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int me = 0; me < 2; ++me) {
      threads.emplace_back([&, me] {
        hub.Issue(McOp::Broadcast(&slots[me], 1, Traffic::kSyncObject));
        const bool alone = LoadWord32(&slots[1 - me]) == 0;
        if (alone) {
          winners.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_LE(winners.load(), 1) << "both claimants believed they were alone";
  }
}

TEST(CopyWords32Test, ConcurrentCopyNeverTearsWords) {
  // A writer flips one word between two values while a reader copies the
  // page; every copied word must be one of the two values (32-bit
  // atomicity), never a mix.
  std::vector<std::uint32_t> page(kWordsPerPage, 0xAAAAAAAA);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t v = 0x55555555;
    while (!stop.load(std::memory_order_relaxed)) {
      StoreWord32(&page[17], v);
      v = ~v;
    }
  });
  std::vector<std::uint32_t> snapshot(kWordsPerPage);
  for (int i = 0; i < 200; ++i) {
    CopyWords32(snapshot.data(), page.data(), kWordsPerPage);
    EXPECT_TRUE(snapshot[17] == 0x55555555u || snapshot[17] == 0xAAAAAAAAu)
        << std::hex << snapshot[17];
    EXPECT_EQ(snapshot[16], 0xAAAAAAAAu);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace cashmere
