// Unit tests for the polling message layer: mailboxes, pending masks,
// sequencing, the one-request-in-flight bound, cross-unit concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "cashmere/msg/message_layer.hpp"

namespace cashmere {
namespace {

Config MsgConfig(int nodes, int ppn) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 4 * kPageBytes;
  return cfg;
}

// Records every request and answers it at once, as the protocol's handler
// does, so its sender may send again.
class RecordingHandler : public RequestHandler {
 public:
  explicit RecordingHandler(MessageLayer& msg) : msg_(msg) {}
  void HandleRequest(const Request& request) override {
    {
      std::lock_guard<std::mutex> guard(mu_);
      requests_.push_back(request);
    }
    msg_.Complete(request.from_proc, request.seq, 0, 0);
  }
  std::vector<Request> Take() {
    std::lock_guard<std::mutex> guard(mu_);
    return requests_;
  }

 private:
  MessageLayer& msg_;
  std::mutex mu_;
  std::vector<Request> requests_;
};

TEST(MessageLayerTest, SendRaisesPendingAndPollDrains) {
  Config cfg = MsgConfig(2, 2);
  MessageLayer msg(cfg);
  RecordingHandler handler(msg);
  msg.set_handler(&handler);

  Request request;
  request.kind = Request::Kind::kPageFetch;
  request.page = 7;
  const std::uint64_t seq = msg.Send(/*from=*/0, /*dst_unit=*/1, request);
  EXPECT_EQ(seq, 1u);
  EXPECT_TRUE(msg.HasPending(1));
  EXPECT_FALSE(msg.HasPending(0));
  EXPECT_EQ(msg.Poll(1), 1);
  EXPECT_FALSE(msg.HasPending(1));
  const auto got = handler.Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].page, 7u);
  EXPECT_EQ(got[0].from_proc, 0);
  EXPECT_EQ(got[0].seq, 1u);
}

TEST(MessageLayerTest, SequenceNumbersArePerProcessor) {
  Config cfg = MsgConfig(2, 2);
  MessageLayer msg(cfg);
  RecordingHandler handler(msg);
  msg.set_handler(&handler);
  Request request;
  EXPECT_EQ(msg.Send(0, 1, request), 1u);
  EXPECT_EQ(msg.Poll(1), 1);
  EXPECT_EQ(msg.MailboxOf(0).done_seq.load(), 1u);
  EXPECT_EQ(msg.Send(0, 1, request), 2u);
  EXPECT_EQ(msg.Send(1, 1, request), 1u);  // different processor
  EXPECT_EQ(msg.Poll(1), 2);
  EXPECT_EQ(msg.MailboxOf(0).done_seq.load(), 2u);
  EXPECT_EQ(msg.MailboxOf(1).done_seq.load(), 1u);
}

TEST(MessageLayerTest, CompleteSignalsReplySlot) {
  Config cfg = MsgConfig(2, 1);
  MessageLayer msg(cfg);
  Mailbox& box = msg.MailboxOf(1);
  EXPECT_EQ(box.done_seq.load(), 0u);
  msg.Complete(/*requester=*/1, /*seq=*/5, kReplyHasPage, /*responder_vt=*/12345);
  EXPECT_EQ(box.done_seq.load(), 5u);
  EXPECT_EQ(box.flags, kReplyHasPage);
  EXPECT_EQ(box.responder_vt, 12345u);
}

TEST(MessageLayerTest, RequestsFromMultipleSourcesAllArrive) {
  Config cfg = MsgConfig(4, 2);  // 4 units
  MessageLayer msg(cfg);
  RecordingHandler handler(msg);
  msg.set_handler(&handler);
  for (ProcId p = 7; p >= 2; --p) {  // procs of units 3..1 send to unit 0
    Request request;
    request.page = static_cast<PageId>(p);
    msg.Send(p, 0, request);
  }
  int handled = 0;
  while (msg.HasPending(0)) {
    handled += msg.Poll(0);
  }
  EXPECT_EQ(handled, 6);
  const auto got = handler.Take();
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i = 0; i < got.size(); ++i) {  // served in processor order
    EXPECT_EQ(got[i].from_proc, static_cast<ProcId>(i + 2));
  }
}

TEST(MessageLayerTest, ConcurrentSendersDoNotLoseRequests) {
  Config cfg = MsgConfig(8, 4);
  MessageLayer msg(cfg);
  RecordingHandler handler(msg);
  msg.set_handler(&handler);
  constexpr int kPerSender = 200;
  constexpr int kSenders = 8;
  std::vector<std::thread> senders;
  for (ProcId p = 4; p < 4 + kSenders; ++p) {  // two units' worth of senders
    senders.emplace_back([&, p] {
      const Mailbox& box = msg.MailboxOf(p);
      for (int i = 0; i < kPerSender; ++i) {
        Request request;
        request.page = static_cast<PageId>(i);
        const std::uint64_t seq = msg.Send(p, 0, request);
        EXPECT_EQ(seq, static_cast<std::uint64_t>(i + 1));
        while (box.done_seq.load(std::memory_order_acquire) < seq) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::atomic<int> drained{0};
  std::thread poller([&] {
    while (drained.load() < kSenders * kPerSender) {
      drained.fetch_add(msg.Poll(0));
    }
  });
  for (auto& t : senders) {
    t.join();
  }
  poller.join();
  EXPECT_EQ(drained.load(), kSenders * kPerSender);
  EXPECT_EQ(handler.Take().size(), static_cast<std::size_t>(kSenders * kPerSender));
  EXPECT_GE(msg.heartbeat(), static_cast<std::uint64_t>(kSenders * kPerSender));
}

TEST(MessageLayerTest, PollFromWrongUnitFindsNothing) {
  Config cfg = MsgConfig(4, 1);
  MessageLayer msg(cfg);
  RecordingHandler handler(msg);
  msg.set_handler(&handler);
  Request request;
  msg.Send(0, 2, request);
  EXPECT_EQ(msg.Poll(1), 0);
  EXPECT_EQ(msg.Poll(3), 0);
  EXPECT_EQ(msg.Poll(2), 1);
}

TEST(MessageLayerDeathTest, SecondSendBeforeReplyAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg = MsgConfig(2, 2);
  MessageLayer msg(cfg);
  Request request;
  msg.Send(0, 1, request);
  EXPECT_DEATH(msg.Send(0, 1, request), "one request in flight");
}

}  // namespace
}  // namespace cashmere
