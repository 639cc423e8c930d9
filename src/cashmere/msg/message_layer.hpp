// Polling-based explicit requests (Section 2.3, Figures 2 and 5).
//
// The Memory Channel supports no remote reads, so reading remote data needs
// a message-passing protocol: the requester deposits a request in a
// per-(destination, source) bin inside the destination's receive region and
// raises the destination's polling flag; any processor of the destination
// unit notices the flag at its next poll, serves the request, and writes the
// reply (page data) into the requester's page read buffer. A requester waits
// for its reply before it sends again, so each bin has a depth of one: it is
// the source processor's Mailbox, and the polling flag is the source's bit in
// the destination unit's pending mask.
//
// Cashmere-2L uses explicit requests for exactly two purposes: fetching a
// page copy from its home node, and breaking a page out of exclusive mode.
#ifndef CASHMERE_MSG_MESSAGE_LAYER_HPP_
#define CASHMERE_MSG_MESSAGE_LAYER_HPP_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cashmere/common/config.hpp"
#include "cashmere/common/spin.hpp"
#include "cashmere/common/types.hpp"

namespace cashmere {

struct Request {
  enum class Kind : std::uint32_t {
    kPageFetch = 0,
    kBreakExclusive = 1,
  };
  Kind kind = Kind::kPageFetch;
  PageId page = kInvalidPage;
  ProcId from_proc = -1;
  std::uint64_t seq = 0;  // requester's outstanding-request sequence
  VirtTime send_vt = 0;   // requester's virtual clock at send time
};

// Reply flags.
inline constexpr std::uint32_t kReplyHasPage = 1u << 0;    // data[] holds the page image
inline constexpr std::uint32_t kReplyFetchHome = 1u << 1;  // requester should fetch from home

// One per processor: its one request in flight and the reply to it ("page
// read buffers" in the paper). The owner writes `request` only once
// `done_seq` has caught up with `request.seq`; a responder copies the
// request out before it completes it.
struct Mailbox {
  Request request;
  alignas(64) std::atomic<std::uint64_t> done_seq{0};
  std::uint32_t flags = 0;
  VirtTime responder_vt = 0;
  alignas(64) std::byte data[kPageBytes];
};

// Implemented by the protocol; invoked on the responding processor's thread
// during a poll.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual void HandleRequest(const Request& request) = 0;
};

class MessageLayer {
 public:
  explicit MessageLayer(const Config& cfg);
  MessageLayer(const MessageLayer&) = delete;
  MessageLayer& operator=(const MessageLayer&) = delete;

  void set_handler(RequestHandler* handler) { handler_ = handler; }

  // Deposits `from`'s request for `dst_unit` and returns the sequence
  // number its reply will carry. `from`'s previous request must have been
  // completed.
  std::uint64_t Send(ProcId from, UnitId dst_unit, Request request);

  // Serves the requests pending for this unit, in processor order, unless
  // another local processor is already serving them. Returns the number of
  // requests handled. Cheap when idle (one acquire load).
  int Poll(UnitId my_unit);

  bool HasPending(UnitId my_unit) const {
    return inboxes_[static_cast<std::size_t>(my_unit)].pending.load(std::memory_order_acquire) != 0;
  }

  // Reply path: the responder fills `MailboxOf(requester).data` and then
  // calls Complete. The requester's wait loop lives in the protocol (it
  // must poll its own unit while waiting, to avoid cross-unit deadlock).
  Mailbox& MailboxOf(ProcId proc) { return mailboxes_[static_cast<std::size_t>(proc)]; }
  void Complete(ProcId requester, std::uint64_t seq, std::uint32_t flags, VirtTime responder_vt);

  // Global progress heartbeat for the deadlock watchdog.
  std::uint64_t heartbeat() const { return heartbeat_.load(std::memory_order_relaxed); }

 private:
  // Per destination unit: one bit per source processor with a request
  // waiting, and the lock that lets one local processor serve them.
  struct alignas(64) UnitInbox {
    std::atomic<std::uint64_t> pending{0};
    SpinLock poll_lock;
  };

  RequestHandler* handler_ = nullptr;
  std::vector<UnitInbox> inboxes_;  // per destination unit
  std::vector<Mailbox> mailboxes_;  // per processor
  std::atomic<std::uint64_t> heartbeat_{0};
};

}  // namespace cashmere

#endif  // CASHMERE_MSG_MESSAGE_LAYER_HPP_
