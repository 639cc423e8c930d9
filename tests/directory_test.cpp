// Unit tests for the replicated global directory and the home table.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "cashmere/mc/hub.hpp"
#include "cashmere/protocol/directory.hpp"
#include "cashmere/protocol/home_table.hpp"

namespace cashmere {
namespace {

Config DirConfig(int nodes = 4, int ppn = 2) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 32 * kPageBytes;
  cfg.superpage_pages = 8;
  return cfg;
}

DirWord ReadWord() {
  DirWord w;
  w.perm = Perm::kRead;
  return w;
}

DirWord ExclWord(ProcId proc) {
  DirWord w;
  w.perm = Perm::kReadWrite;
  w.exclusive = true;
  w.excl_proc = proc;
  return w;
}

TEST(DirWordTest, PackUnpackRoundTrip) {
  for (const Perm perm : {Perm::kInvalid, Perm::kRead, Perm::kReadWrite}) {
    for (const bool excl : {false, true}) {
      for (const ProcId p : {0, 5, 31}) {
        DirWord w;
        w.perm = perm;
        w.exclusive = excl;
        w.excl_proc = p;
        const DirWord u = DirWord::Unpack(w.Pack());
        EXPECT_EQ(u.perm, perm);
        EXPECT_EQ(u.exclusive, excl);
        EXPECT_EQ(u.excl_proc, p);
      }
    }
  }
}

TEST(ConfigValidateTest, RejectsClustersOverSixtyFourProcessors) {
  Config cfg = DirConfig(/*nodes=*/100, /*ppn=*/1);
  EXPECT_DEATH(cfg.Validate(), "excl_proc in 6 bits");
}

// --- Directory contract -----------------------------------------------------

class DirectoryTest : public ::testing::Test {
 protected:
  void Init(Config cfg) {
    cfg_ = cfg;
    hub_ = std::make_unique<McHub>(cfg_.units());
    dir_ = std::make_unique<GlobalDirectory>(cfg_, *hub_);
  }

  Config cfg_;
  std::unique_ptr<McHub> hub_;
  std::unique_ptr<GlobalDirectory> dir_;
};

TEST_F(DirectoryTest, WriteAndReadPerUnitWords) {
  Init(DirConfig());
  DirWord w;
  w.perm = Perm::kReadWrite;
  dir_->Write(3, 1, w);
  EXPECT_EQ(dir_->Read(3, 1).perm, Perm::kReadWrite);
  EXPECT_EQ(dir_->Read(3, 0).perm, Perm::kInvalid);
  EXPECT_EQ(dir_->Read(2, 1).perm, Perm::kInvalid);
}

TEST_F(DirectoryTest, SharersAndExclusiveQueries) {
  Init(DirConfig());
  dir_->Write(0, 1, ReadWord());
  dir_->Write(0, 2, ExclWord(5));

  EXPECT_TRUE(dir_->AnyOtherSharer(0, 0));
  EXPECT_TRUE(dir_->AnyOtherSharer(0, 1));
  EXPECT_FALSE(dir_->AnyOtherSharer(5, 0));
  EXPECT_EQ(dir_->ExclusiveHolder(0), 2);
  EXPECT_EQ(dir_->ExclusiveHolder(1), -1);

  UnitId sharers[kMaxProcs];
  const int n = dir_->Sharers(0, /*exclude=*/1, sharers);
  ASSERT_EQ(n, 1);
  EXPECT_EQ(sharers[0], 2);
}

TEST_F(DirectoryTest, WriteBroadcastsOneWordPerReplica) {
  Init(DirConfig());
  const auto broadcast = static_cast<std::uint64_t>(kWordBytes * cfg_.units());
  dir_->Write(0, 0, ReadWord());
  EXPECT_EQ(hub_->BytesSent(Traffic::kDirectory), broadcast);
  std::uint32_t snap[kMaxProcs];
  dir_->WriteAndSnapshot(0, 1, ReadWord(), snap);
  EXPECT_EQ(hub_->BytesSent(Traffic::kDirectory), 2 * broadcast);
  EXPECT_EQ(hub_->WritesSent(Traffic::kDirectory), 2u);
}

TEST_F(DirectoryTest, SnapshotReflectsPriorWrites) {
  Init(DirConfig());
  dir_->Write(4, 2, ReadWord());
  std::uint32_t snap[kMaxProcs];
  dir_->WriteAndSnapshot(4, 0, ExclWord(0), snap);
  EXPECT_EQ(DirWord::Unpack(snap[0]).exclusive, true);
  EXPECT_EQ(DirWord::Unpack(snap[2]).perm, Perm::kRead);
  EXPECT_EQ(DirWord::Unpack(snap[1]).perm, Perm::kInvalid);
}

TEST_F(DirectoryTest, ConcurrentExclusiveClaimsAtMostOneWinner) {
  // The WriteAndSnapshot arbitration: of two units claiming exclusivity,
  // at most one can see a snapshot with no other sharer.
  for (int round = 0; round < 100; ++round) {
    Init(DirConfig());
    std::atomic<int> winners{0};
    auto claimant = [&](UnitId unit) {
      std::uint32_t snap[kMaxProcs];
      dir_->WriteAndSnapshot(9, unit, ExclWord(0), snap);
      bool alone = true;
      for (int u = 0; u < cfg_.units(); ++u) {
        if (u == unit) {
          continue;
        }
        const DirWord w = DirWord::Unpack(snap[u]);
        if (w.perm != Perm::kInvalid || w.exclusive) {
          alone = false;
        }
      }
      if (alone) {
        winners.fetch_add(1);
      }
    };
    std::thread t1(claimant, 0);
    std::thread t2(claimant, 1);
    t1.join();
    t2.join();
    EXPECT_LE(winners.load(), 1);
  }
}

// --- Home table -------------------------------------------------------------

TEST(HomeTableTest, RoundRobinInitialAssignment) {
  Config cfg = DirConfig(4, 1);  // 4 units
  HomeTable homes(cfg);
  EXPECT_EQ(homes.superpages(), 4u);
  EXPECT_EQ(homes.HomeOfSuperpage(0), 0);
  EXPECT_EQ(homes.HomeOfSuperpage(1), 1);
  EXPECT_EQ(homes.HomeOfSuperpage(3), 3);
  // Pages inherit the superpage's home.
  EXPECT_EQ(homes.HomeOfPage(0), 0);
  EXPECT_EQ(homes.HomeOfPage(7), 0);
  EXPECT_EQ(homes.HomeOfPage(8), 1);
}

TEST(HomeTableTest, RelocationIsSticky) {
  Config cfg = DirConfig(4, 1);
  HomeTable homes(cfg);
  EXPECT_TRUE(homes.IsDefault(2));
  homes.GlobalLock().Lock();
  homes.Relocate(2, 3);
  homes.GlobalLock().Unlock();
  EXPECT_FALSE(homes.IsDefault(2));
  EXPECT_EQ(homes.HomeOfSuperpage(2), 3);
  // SealDefault keeps the round-robin home but forbids future relocation.
  homes.GlobalLock().Lock();
  homes.SealDefault(1);
  homes.GlobalLock().Unlock();
  EXPECT_FALSE(homes.IsDefault(1));
  EXPECT_EQ(homes.HomeOfSuperpage(1), 1);
}

TEST(HomeTableTest, FirstTouchGate) {
  Config cfg = DirConfig();
  HomeTable homes(cfg);
  EXPECT_FALSE(homes.FirstTouchEnabled());
  homes.EnableFirstTouch();
  EXPECT_TRUE(homes.FirstTouchEnabled());
}

}  // namespace
}  // namespace cashmere
