// Dynamic single-writer ownership verifier (common/ownership.hpp): claim
// semantics, exemptions (unbound threads, override scopes, copies), the
// unit-writer assertion guarding the global directory, and — the point of
// the whole mechanism — the abort when a second bound processor writes a
// single-writer structure.
#include <gtest/gtest.h>

#include <thread>

#include "cashmere/common/ownership.hpp"
#include "cashmere/common/stats.hpp"
#include "cashmere/common/trace.hpp"

namespace cashmere {
namespace {

// Tier-1 builds define NDEBUG, so the gate defaults off; every test flips
// it explicitly and restores the default so the suite's other tests see
// the build's normal behavior.
class OwnershipTest : public testing::Test {
 protected:
  void SetUp() override { SetOwnershipChecksForTesting(true); }
  void TearDown() override {
    OwnershipUnbindThread();
    SetOwnershipChecksForTesting(ownership_internal::kOwnershipChecksDefault);
  }
};

TEST_F(OwnershipTest, UnboundThreadsNeverClaim) {
  OwnerCell cell;
  cell.NoteWrite("test");  // this thread is unbound: exempt
  EXPECT_EQ(cell.OwnerForTesting(), OwnerCell::kUnowned);
}

TEST_F(OwnershipTest, FirstBoundWriterClaimsAndMayRepeat) {
  OwnerCell cell;
  OwnershipBindThread(/*proc=*/3, /*unit=*/1);
  cell.NoteWrite("test");
  EXPECT_EQ(cell.OwnerForTesting(), 3);
  cell.NoteWrite("test");  // same proc: fine
  EXPECT_EQ(cell.OwnerForTesting(), 3);
}

TEST_F(OwnershipTest, ResetReleasesTheClaim) {
  OwnerCell cell;
  OwnershipBindThread(2, 0);
  cell.NoteWrite("test");
  cell.Reset();
  EXPECT_EQ(cell.OwnerForTesting(), OwnerCell::kUnowned);
  OwnershipBindThread(5, 1);  // a new owner may now claim
  cell.NoteWrite("test");
  EXPECT_EQ(cell.OwnerForTesting(), 5);
}

TEST_F(OwnershipTest, CopyDoesNotPropagateTheClaim) {
  // Stats snapshots are copied for aggregation; the copy is a fresh value.
  OwnerCell cell;
  OwnershipBindThread(1, 0);
  cell.NoteWrite("test");
  OwnerCell copy(cell);
  EXPECT_EQ(copy.OwnerForTesting(), OwnerCell::kUnowned);
  OwnerCell assigned;
  assigned = cell;
  EXPECT_EQ(assigned.OwnerForTesting(), OwnerCell::kUnowned);
}

TEST_F(OwnershipTest, OverrideScopeExemptsTheWrite) {
  OwnerCell cell;
  OwnershipBindThread(0, 0);
  cell.NoteWrite("test");
  OwnershipBindThread(1, 0);
  {
    // The documented relocation exemption: a different processor may write
    // inside an override scope without claiming or aborting.
    OwnershipOverrideScope scope;
    EXPECT_TRUE(OwnershipOverrideActive());
    cell.NoteWrite("test");
  }
  EXPECT_FALSE(OwnershipOverrideActive());
  EXPECT_EQ(cell.OwnerForTesting(), 0);
}

TEST_F(OwnershipTest, ChecksOffMeansNoClaims) {
  SetOwnershipChecksForTesting(false);
  OwnerCell cell;
  OwnershipBindThread(4, 1);
  cell.NoteWrite("test");
  EXPECT_EQ(cell.OwnerForTesting(), OwnerCell::kUnowned);
}

TEST_F(OwnershipTest, UnitWriterAssertAcceptsOwnerAndExemptions) {
  OwnershipBindThread(/*proc=*/2, /*unit=*/1);
  CsmAssertUnitWriter(1, "test");  // owner: ok
  {
    OwnershipOverrideScope scope;
    CsmAssertUnitWriter(0, "test");  // overridden: ok
  }
  OwnershipUnbindThread();
  CsmAssertUnitWriter(0, "test");  // unbound: ok
}

TEST_F(OwnershipTest, StatsAndTraceRingClaimTheirWriter) {
  OwnershipBindThread(6, 1);
  Stats stats;
  stats.Add(Counter::kReadFaults);
  EXPECT_EQ(stats.owner_check.OwnerForTesting(), 6);
  stats.AddTime(TimeCategory::kProtocol, 10);
  // Copying the stats (aggregation snapshot) resets the copy's claim, so
  // the fold-after-join `operator+=` path never inherits a stale owner.
  Stats snapshot = stats;
  EXPECT_EQ(snapshot.owner_check.OwnerForTesting(), OwnerCell::kUnowned);

  TraceRing ring(64);
  ring.Append(TraceEvent{});
  // Reset (between runs) releases the ring for adoption by a new thread.
  ring.Reset();
  OwnershipBindThread(7, 1);
  ring.Append(TraceEvent{});
}

using OwnershipDeathTest = OwnershipTest;

TEST_F(OwnershipDeathTest, CrossProcessorWriteAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetOwnershipChecksForTesting(true);
        OwnerCell cell;
        std::thread writer([&cell] {
          OwnershipBindThread(/*proc=*/0, /*unit=*/0);
          cell.NoteWrite("Stats::Add");
        });
        writer.join();
        std::thread intruder([&cell] {
          OwnershipBindThread(/*proc=*/1, /*unit=*/0);
          cell.NoteWrite("Stats::Add");  // second writer: abort
        });
        intruder.join();
      },
      "ownership violation");
}

TEST_F(OwnershipDeathTest, CrossProcessorTraceAppendAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetOwnershipChecksForTesting(true);
        // The real structure, not a bare cell: processor 0 appends to its
        // own trace ring, then processor 2's thread appends to the same
        // ring — exactly the single-writer violation the annotation
        // declares.
        TraceRing ring(64);
        std::thread owner([&ring] {
          OwnershipBindThread(0, 0);
          ring.Append(TraceEvent{});
        });
        owner.join();
        std::thread intruder([&ring] {
          OwnershipBindThread(2, 0);
          ring.Append(TraceEvent{});
        });
        intruder.join();
      },
      "ownership violation");
}

TEST_F(OwnershipDeathTest, CrossUnitDirectoryWriteAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetOwnershipChecksForTesting(true);
        OwnershipBindThread(/*proc=*/4, /*unit=*/1);
        CsmAssertUnitWriter(/*unit=*/0, "GlobalDirectory::Write");
      },
      "ownership violation");
}

}  // namespace
}  // namespace cashmere
