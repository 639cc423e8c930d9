// Property tests for the block-scanned, run-length diff engine against the
// seed's word-at-a-time scanner (kept as the oracle, diff_oracle.hpp):
//  - the block scan and the RLE encode→apply round trip produce byte-
//    identical master/twin/working images for random triples at every
//    density, including runs that straddle 64-byte block boundaries,
//    all-clean and all-dirty pages, and the first/last words of a page;
//  - a local writer racing with an outgoing flush never corrupts words it
//    does not own.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
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

// Applies `mutate` word indices to a working copy and checks that the block
// scanner, the RLE round trip, and the reference word scanner all agree.
void CheckOutgoingEquivalence(const std::vector<std::size_t>& modified, bool flush_update,
                              std::uint64_t seed) {
  Page base = MakePage(seed);
  Page working = base;
  for (const std::size_t i : modified) {
    working[i] ^= 0xDEADBEEFu;
  }

  // Oracle: the seed's word-at-a-time scanner.
  Page twin_ref = base, master_ref = base;
  const std::size_t n_ref =
      ApplyOutgoingDiffWordScan(Bytes(working), Bytes(twin_ref), Bytes(master_ref), flush_update);

  // Block scanner, direct apply.
  Page twin_blk = base, master_blk = base;
  const std::size_t n_blk =
      ApplyOutgoingDiff(Bytes(working), Bytes(twin_blk), Bytes(master_blk), flush_update);
  EXPECT_EQ(n_blk, n_ref);
  EXPECT_EQ(master_blk, master_ref);
  EXPECT_EQ(twin_blk, twin_ref);

  // RLE encode → apply round trip (debug verify on: no racing writer here).
  SetDiffVerifyForTesting(true);
  Page twin_rle = base, master_rle = base;
  DiffBuffer buf;
  DiffScanStats scan;
  const std::size_t n_rle =
      EncodeOutgoingDiff(Bytes(working), Bytes(twin_rle), flush_update, buf, &scan);
  SetDiffVerifyForTesting(false);
  ApplyDiffRuns(buf, Bytes(master_rle));
  EXPECT_EQ(n_rle, n_ref);
  EXPECT_EQ(buf.words(), n_ref);
  EXPECT_EQ(master_rle, master_ref);
  EXPECT_EQ(twin_rle, twin_ref);
  EXPECT_EQ(scan.runs, buf.run_count());
  EXPECT_EQ(scan.run_bytes, buf.WireBytes());
  EXPECT_EQ(scan.blocks_scanned, kBlocksPerPage);
  // Runs are maximal: consecutive runs never abut.
  for (std::size_t r = 1; r < buf.run_count(); ++r) {
    EXPECT_GT(buf.run(r).offset_words,
              buf.run(r - 1).offset_words + buf.run(r - 1).nwords);
  }
}

TEST(DiffEngineTest, RunsStraddlingBlockBoundaries) {
  // A run crossing the block 0 / block 1 boundary (words 14..18), one
  // crossing a chunk boundary (word 33..34), the page's first and last
  // words, and an entire block.
  std::vector<std::size_t> mods = {0, 14, 15, 16, 17, 18, 33, 34, kWordsPerPage - 1};
  for (std::size_t i = 0; i < kWordsPerBlock; ++i) {
    mods.push_back(5 * kWordsPerBlock + i);
  }
  CheckOutgoingEquivalence(mods, /*flush_update=*/false, 11);
  CheckOutgoingEquivalence(mods, /*flush_update=*/true, 12);
}

TEST(DiffEngineTest, AllCleanAndAllDirtyPages) {
  CheckOutgoingEquivalence({}, true, 21);
  std::vector<std::size_t> all(kWordsPerPage);
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    all[i] = i;
  }
  CheckOutgoingEquivalence(all, true, 22);
}

TEST(DiffEngineTest, WorstCaseAlternatingWordsFitsBuffer) {
  // Alternating dirty words maximize the run count; DiffBuffer must hold
  // them all without overflow.
  std::vector<std::size_t> alternating;
  for (std::size_t i = 0; i < kWordsPerPage; i += 2) {
    alternating.push_back(i);
  }
  ASSERT_LE(alternating.size(), DiffBuffer::kMaxRuns);
  CheckOutgoingEquivalence(alternating, true, 23);
}

TEST(DiffEngineTest, RandomTriplesMatchWordScanner) {
  SplitMix64 rng(31);
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Density sweep: from a handful of words up to the whole page (drawn
    // with repeats, so the top trials dirty most but not all words).
    const std::size_t count =
        1 + rng.NextBelow(1 + trial * (2 * kWordsPerPage) / (kTrials - 1));
    std::vector<std::size_t> mods;
    mods.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      mods.push_back(rng.NextBelow(kWordsPerPage));
    }
    CheckOutgoingEquivalence(mods, (trial % 2) == 0, 100 + trial);
  }
}

TEST(DiffEngineTest, IncomingMatchesWordScanner) {
  SplitMix64 rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    Page base = MakePage(200 + trial);
    Page incoming = base;
    Page local = base;
    // Disjoint halves, as data-race freedom guarantees.
    for (int k = 0; k < 40; ++k) {
      incoming[rng.NextBelow(kWordsPerPage / 2)] ^= 0x0BADF00Du;
      local[kWordsPerPage / 2 + rng.NextBelow(kWordsPerPage / 2)] ^= 0xFEEDFACEu;
    }
    Page twin_ref = base, working_ref = local;
    const std::size_t n_ref =
        ApplyIncomingDiffWordScan(Bytes(incoming), Bytes(twin_ref), Bytes(working_ref));
    Page twin_blk = base, working_blk = local;
    DiffScanStats scan;
    const std::size_t n_blk =
        ApplyIncomingDiff(Bytes(incoming), Bytes(twin_blk), Bytes(working_blk), &scan);
    EXPECT_EQ(n_blk, n_ref);
    EXPECT_EQ(twin_blk, twin_ref);
    EXPECT_EQ(working_blk, working_ref);
    EXPECT_EQ(scan.blocks_scanned, kBlocksPerPage);
  }
}

TEST(DiffEngineTest, ConcurrentWriterNeverCorruptsUnrelatedWords) {
  // A local writer hammers the first half of the page while repeated
  // flush-update scans run over the whole page. The scan may or may not
  // catch any individual racing store (the writer's own release re-flushes
  // those), but words the writer does not own must reach the master with
  // exactly their original working values, and every master word the
  // flusher writes must be a value the working copy actually held.
  Page base = MakePage(61);
  Page working = base;
  Page twin = base;
  Page master = base;
  // Deterministic second-half modifications the flusher must move intact.
  for (std::size_t i = kWordsPerPage / 2; i < kWordsPerPage; i += 3) {
    working[i] = 0x51000000u | static_cast<std::uint32_t>(i);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    SplitMix64 rng(62);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = rng.NextBelow(kWordsPerPage / 2);
      StoreWord32Relaxed(Bytes(working), i, 0x77000000u | static_cast<std::uint32_t>(i));
    }
  });
  for (int round = 0; round < 200; ++round) {
    ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), true);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    if (i >= kWordsPerPage / 2) {
      const std::uint32_t expect =
          (i % 3 == (kWordsPerPage / 2) % 3) ? 0x51000000u | static_cast<std::uint32_t>(i)
                                             : base[i];
      EXPECT_EQ(master[i], expect) << "word " << i;
    } else {
      // Racing half: master holds either the original or a writer value.
      const bool original = master[i] == base[i];
      const bool written = master[i] == (0x77000000u | static_cast<std::uint32_t>(i));
      EXPECT_TRUE(original || written) << "word " << i << " corrupted: " << master[i];
    }
  }
  // A final quiescent flush converges master to the working copy.
  ApplyOutgoingDiff(Bytes(working), Bytes(twin), Bytes(master), true);
  EXPECT_EQ(master, working);
  EXPECT_EQ(twin, working);
}

}  // namespace
}  // namespace cashmere
