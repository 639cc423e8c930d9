// Unit and property tests for the diff engine — the heart of the
// multiple-writer protocol. The key invariants:
//  - outgoing diffs move exactly the locally modified words to the master;
//  - flush-update leaves twin == working for every flushed word;
//  - incoming diffs apply exactly the remote modifications and never
//    disturb concurrent local modifications (data-race-free => disjoint);
//  - merging N writers' diffs at the master reconstructs all N writers'
//    words regardless of order.
#include <gtest/gtest.h>

#include <vector>

#include "cashmere/common/rng.hpp"
#include "cashmere/protocol/diff.hpp"
#include "diff_oracle.hpp"

namespace cashmere {
namespace {

using Page = std::vector<std::uint32_t>;

Page MakePage(std::uint64_t seed) {
  Page p(kWordsPerPage);
  SplitMix64 rng(seed);
  for (auto& w : p) {
    w = static_cast<std::uint32_t>(rng.Next());
  }
  return p;
}

std::byte* Bytes(Page& p) { return reinterpret_cast<std::byte*>(p.data()); }

TEST(DiffTest, OutgoingDiffWritesOnlyChangedWords) {
  Page master = MakePage(1);
  Page twin = master;
  Page working = master;
  working[0] = 111;
  working[100] = 222;
  working[kWordsPerPage - 1] = 333;
  const std::size_t n = ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), false);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(master[0], 111u);
  EXPECT_EQ(master[100], 222u);
  EXPECT_EQ(master[kWordsPerPage - 1], 333u);
  EXPECT_EQ(master[1], twin[1]);
  // Without flush_update the twin is untouched.
  EXPECT_NE(twin[0], 111u);
}

TEST(DiffTest, FlushUpdateSynchronizesTwin) {
  Page master = MakePage(2);
  Page twin = master;
  Page working = master;
  working[7] = 0x1234;
  ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), true);
  EXPECT_EQ(twin[7], 0x1234u);
  // A second flush finds nothing to do.
  const std::size_t n = ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), true);
  EXPECT_EQ(n, 0u);
}

TEST(DiffTest, IncomingDiffMergesRemoteWithoutDisturbingLocal) {
  Page master = MakePage(3);
  Page twin = master;    // node's view of the master
  Page working = master;
  // Local writer modifies words 10..19 (unflushed).
  for (int i = 10; i < 20; ++i) {
    working[i] = 0xAAAA0000u + i;
  }
  // Remote writer's modifications arrive in a fresh master image: words
  // 100..109 (data-race-free: disjoint from local ones).
  Page incoming = master;
  for (int i = 100; i < 110; ++i) {
    incoming[i] = 0xBBBB0000u + i;
  }
  const std::size_t n = ApplyIncomingDiff(Bytes(incoming), Bytes(twin), Bytes(working));
  EXPECT_EQ(n, 10u);
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(working[i], 0xAAAA0000u + i) << "local modification clobbered";
  }
  for (int i = 100; i < 110; ++i) {
    EXPECT_EQ(working[i], 0xBBBB0000u + i) << "remote modification missed";
    EXPECT_EQ(twin[i], 0xBBBB0000u + i) << "twin not updated";
  }
  // Subsequent outgoing diff must flush only the local words.
  Page master2 = incoming;
  const std::size_t out = ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master2), true);
  EXPECT_EQ(out, 10u);
}

TEST(DiffTest, CopyPageAndCountDiffWords) {
  Page a = MakePage(4);
  Page b(kWordsPerPage, 0);
  EXPECT_GT(CountDiffWords(Bytes(a), Bytes(b)), kWordsPerPage / 2);
  CopyPage(Bytes(b), Bytes(a));
  EXPECT_EQ(CountDiffWords(Bytes(a), Bytes(b)), 0u);
  EXPECT_EQ(a, b);
}

// Property: N writers each modify a disjoint word set; merging their
// outgoing diffs into the master in any order reconstructs every write.
class MultiWriterMergeTest : public testing::TestWithParam<int> {};

TEST_P(MultiWriterMergeTest, DisjointWritersMergeExactly) {
  const int writers = GetParam();
  SplitMix64 rng(1000 + writers);
  Page master = MakePage(5);
  const Page original = master;

  struct Writer {
    Page twin;
    Page working;
    std::vector<int> words;
  };
  std::vector<Writer> ws(writers);
  // Assign each word to at most one writer.
  std::vector<int> owner(kWordsPerPage, -1);
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    if (rng.NextBelow(3) == 0) {
      owner[i] = static_cast<int>(rng.NextBelow(writers));
    }
  }
  for (int w = 0; w < writers; ++w) {
    ws[w].twin = original;
    ws[w].working = original;
  }
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    if (owner[i] >= 0) {
      ws[owner[i]].working[i] = 0xC0000000u | static_cast<std::uint32_t>(i);
      ws[owner[i]].words.push_back(static_cast<int>(i));
    }
  }
  // Merge in a shuffled order.
  std::vector<int> order(writers);
  for (int w = 0; w < writers; ++w) {
    order[w] = w;
  }
  for (int w = writers - 1; w > 0; --w) {
    std::swap(order[w], order[rng.NextBelow(static_cast<std::uint64_t>(w + 1))]);
  }
  for (const int w : order) {
    ApplyOutgoingDiff(Bytes(ws[w].working), Bytes(ws[w].twin), Bytes(master), true);
  }
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    if (owner[i] >= 0) {
      EXPECT_EQ(master[i], 0xC0000000u | static_cast<std::uint32_t>(i));
    } else {
      EXPECT_EQ(master[i], original[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WriterCounts, MultiWriterMergeTest, testing::Values(2, 3, 4, 8, 16));

// Property: alternating rounds of incoming and outgoing diffs keep twin,
// working and master mutually consistent under disjoint updates.
TEST(DiffPropertyTest, AlternatingRoundsConverge) {
  SplitMix64 rng(99);
  Page master = MakePage(6);
  Page twin = master;
  Page working = master;
  for (int round = 0; round < 20; ++round) {
    // Remote round: mutate some "remote" words directly in the master.
    for (int k = 0; k < 10; ++k) {
      const std::size_t i = rng.NextBelow(kWordsPerPage / 2);  // remote half
      master[i] = static_cast<std::uint32_t>(rng.Next());
    }
    ApplyIncomingDiff(Bytes(master), Bytes(twin), Bytes(working));
    // Local round: mutate local-half words in the working copy and flush.
    for (int k = 0; k < 10; ++k) {
      const std::size_t i = kWordsPerPage / 2 + rng.NextBelow(kWordsPerPage / 2);
      working[i] = static_cast<std::uint32_t>(rng.Next());
    }
    ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), true);
    EXPECT_EQ(CountDiffWords(Bytes(working), Bytes(master)), 0u);
    EXPECT_EQ(CountDiffWords(Bytes(twin), Bytes(master)), 0u);
  }
}

}  // namespace
}  // namespace cashmere
