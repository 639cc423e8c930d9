// McTransport contract tests (DESIGN.md §14), parameterized over both
// backends so inproc and shm-solo pin the same Execute semantics: word
// atomicity, stream/run scatter parity against plain memcpy, and the
// total order of the ordered broadcast/exchange pair. Cluster-mode tests
// drive a real fork()ed cluster through the in-process ShmLauncher:
// segment bootstrap over SCM_RIGHTS, a remote write proven visible in the
// peer process's own mapping, the barrier of last resort, and the
// teardown guarantee when a child is killed.
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cashmere/common/config.hpp"
#include "cashmere/common/rng.hpp"
#include "cashmere/mc/control_plane.hpp"
#include "cashmere/mc/inproc_transport.hpp"
#include "cashmere/mc/shm_transport.hpp"
#include "cashmere/mc/transport.hpp"

namespace cashmere {
namespace {

enum class Backend { kInProc, kShmSolo };

std::unique_ptr<McTransport> Make(Backend b) {
  if (b == Backend::kInProc) {
    return std::make_unique<InProcTransport>();
  }
  return std::make_unique<ShmTransport>();  // solo: no cluster, real memfd lock page
}

class TransportTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { t_ = Make(GetParam()); }
  std::unique_ptr<McTransport> t_;
};

INSTANTIATE_TEST_SUITE_P(Backends, TransportTest,
                         ::testing::Values(Backend::kInProc, Backend::kShmSolo),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kInProc ? "inproc" : "shm_solo";
                         });

TEST_P(TransportTest, WordWriteStores) {
  std::uint32_t word = 0;
  EXPECT_EQ(t_->Execute(McOp::Word(&word, 0xdeadbeefu, Traffic::kDirectory)), 0u);
  EXPECT_EQ(word, 0xdeadbeefu);
}

TEST_P(TransportTest, StreamMatchesMemcpy) {
  constexpr std::size_t kWords = 777;
  std::vector<std::uint32_t> src(kWords);
  SplitMix64 rng(11);
  for (auto& w : src) {
    w = static_cast<std::uint32_t>(rng.Next());
  }
  std::vector<std::uint32_t> dst(kWords, 0);
  t_->Execute(McOp::Stream(dst.data(), src.data(), kWords, Traffic::kPageData));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), kWords * kWordBytes), 0);
}

TEST_P(TransportTest, RunScatterMatchesMemcpy) {
  constexpr std::size_t kBaseWords = 512;
  std::vector<std::uint32_t> base(kBaseWords, 0u);
  std::vector<std::uint32_t> expect(kBaseWords, 0u);
  SplitMix64 rng(12);
  // A handful of RLE runs at random offsets; the reference applies each with
  // plain memcpy at the same word offset.
  for (int r = 0; r < 16; ++r) {
    const std::size_t off = rng.NextBelow(kBaseWords - 32);
    const std::size_t n = 1 + rng.NextBelow(31);
    std::vector<std::uint32_t> payload(n);
    for (auto& w : payload) {
      w = static_cast<std::uint32_t>(rng.Next());
    }
    t_->Execute(McOp::Run(base.data(), off, payload.data(), n, Traffic::kDiffData));
    std::memcpy(expect.data() + off, payload.data(), n * kWordBytes);
  }
  EXPECT_EQ(std::memcmp(base.data(), expect.data(), kBaseWords * kWordBytes), 0);
}

TEST_P(TransportTest, BroadcastStoresAndExchangeReturnsPrevious) {
  std::uint32_t loc = 0;
  t_->Execute(McOp::Broadcast(&loc, 41, Traffic::kSyncObject));
  EXPECT_EQ(loc, 41u);
  EXPECT_EQ(t_->Execute(McOp::Exchange(&loc, 42, Traffic::kSyncObject)), 41u);
  EXPECT_EQ(t_->Execute(McOp::Exchange(&loc, 43, Traffic::kSyncObject)), 42u);
  EXPECT_EQ(loc, 43u);
}

// The ordered pair must behave as one globally-ordered sequence: concurrent
// exchanges from many threads hand the location's history around as a chain
// of (previous -> new) links. If and only if every exchange is atomic within
// a single total order, walking the chain back from the final value visits
// every injected value exactly once and terminates at the initial 0.
TEST_P(TransportTest, ConcurrentExchangesFormOneTotalOrder) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::uint32_t loc = 0;
  // prev_of[v] = value the exchange that installed v observed.
  std::vector<std::uint32_t> prev_of(
      static_cast<std::size_t>(kThreads * kIters) + 1, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t v =
            static_cast<std::uint32_t>(th * kIters + i) + 1;  // unique, nonzero
        prev_of[v] =
            t_->Execute(McOp::Exchange(&loc, v, Traffic::kSyncObject));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::vector<bool> seen(prev_of.size(), false);
  std::uint32_t v = loc;
  std::size_t visited = 0;
  while (v != 0) {
    ASSERT_LT(v, prev_of.size());
    ASSERT_FALSE(seen[v]) << "value " << v << " appears twice in the chain";
    seen[v] = true;
    ++visited;
    v = prev_of[v];
  }
  EXPECT_EQ(visited, static_cast<std::size_t>(kThreads * kIters));
}

// Concurrent ordered broadcasts must each be atomic against the exchanges
// (same global order): the final value is one of the injected values.
TEST_P(TransportTest, BroadcastsSerializeAgainstExchanges) {
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::uint32_t loc = 0;
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t v = static_cast<std::uint32_t>(th * kIters + i) + 1;
        if (th % 2 == 0) {
          t_->Execute(McOp::Broadcast(&loc, v, Traffic::kSyncObject));
        } else {
          t_->Execute(McOp::Exchange(&loc, v, Traffic::kSyncObject));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GE(loc, 1u);
  EXPECT_LE(loc, static_cast<std::uint32_t>(kThreads * kIters));
}

TEST_P(TransportTest, RegisterArenaResolveRoundTrip) {
  alignas(8) std::byte seg_a[256];
  alignas(8) std::byte seg_b[128];
  t_->BeginBoot();
  const SegmentId a = t_->RegisterArena(SegmentInfo{-1, sizeof(seg_a), 0}, seg_a);
  const SegmentId b = t_->RegisterArena(SegmentInfo{-1, sizeof(seg_b), 1}, seg_b);
  EXPECT_EQ(t_->segment_count(), 2u);
  EXPECT_EQ(t_->segment(a).bytes, sizeof(seg_a));
  EXPECT_EQ(t_->segment(b).owner, 1);
  EXPECT_EQ(t_->Resolve(PageFrameRef{a, 0}), seg_a);
  EXPECT_EQ(t_->Resolve(PageFrameRef{a, 100}), seg_a + 100);
  EXPECT_EQ(t_->Resolve(PageFrameRef{b, 64}), seg_b + 64);
  EXPECT_EQ(t_->MapRemote(b), seg_b);
  // A new boot drops the table (the transport outlives Runtimes).
  t_->BeginBoot();
  EXPECT_EQ(t_->segment_count(), 0u);
}

TEST(TransportFactoryTest, ConfigSelectsBackend) {
  Config cfg;
  EXPECT_STREQ(MakeTransport(cfg)->name(), "inproc");
  cfg.mc.transport = McTransportKind::kShm;
  EXPECT_STREQ(MakeTransport(cfg)->name(), "shm");
}

// --- Cluster mode ---------------------------------------------------------

// One mapped arena segment hosted by a forked peer: bootstrap over
// SCM_RIGHTS, a remote write through the transport, and EndRun's checksum
// handshake proving the bytes are visible through the *peer process's* own
// mapping, not just ours.
TEST(ShmClusterTest, RemoteWriteVisibleInPeerProcess) {
  ShmLauncher launcher;
  ASSERT_TRUE(launcher.Start(2));
  {
    ShmTransport lead(launcher.TakeLeadEndpoint(), 2, 0);
    ASSERT_TRUE(lead.cluster());
    EXPECT_EQ(lead.cluster_processes(), 2);
    lead.BeginBoot();
    const std::size_t kBytes = 4 * kPageBytes;
    const int fd = lead.ArenaFdFor(1, kBytes);
    ASSERT_GE(fd, 0);
    void* base = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ASSERT_NE(base, MAP_FAILED);
    const SegmentId seg =
        lead.RegisterArena(SegmentInfo{fd, kBytes, 1}, static_cast<std::byte*>(base));
    lead.BeginRun();  // barrier of last resort: peer alive before the "run"
    std::vector<std::uint32_t> pattern(kBytes / kWordBytes);
    SplitMix64 rng(21);
    for (auto& w : pattern) {
      w = static_cast<std::uint32_t>(rng.Next());
    }
    lead.Execute(McOp::Stream(lead.Resolve(PageFrameRef{seg, 0}), pattern.data(),
                              pattern.size(), Traffic::kPageData));
    lead.EndRun();
    EXPECT_TRUE(lead.peers_verified());
    EXPECT_GT(lead.wire_ns(), 0u);
    munmap(base, kBytes);
    close(fd);
  }  // ~ShmTransport sends kShutdown
  EXPECT_TRUE(launcher.Join());
}

// Killing a child mid-session must tear the whole cluster down and report
// the failure through Join() — never hang the launcher.
TEST(ShmClusterTest, KilledChildTearsClusterDown) {
  ShmLauncher launcher;
  ASSERT_TRUE(launcher.Start(3));
  {
    ShmTransport lead(launcher.TakeLeadEndpoint(), 3, 0);
    lead.BeginBoot();
    launcher.KillPeer(1, SIGKILL);
    // The transport's shutdown send races the crash detection; either way
    // Join must unblock and report an unclean teardown.
  }
  EXPECT_FALSE(launcher.Join());
}

}  // namespace
}  // namespace cashmere
