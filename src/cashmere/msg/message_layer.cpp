#include "cashmere/msg/message_layer.hpp"

#include <bit>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/trace.hpp"

namespace cashmere {

MessageLayer::MessageLayer(const Config& cfg)
    : inboxes_(static_cast<std::size_t>(cfg.units())),
      mailboxes_(static_cast<std::size_t>(cfg.total_procs())) {
  CSM_CHECK(cfg.total_procs() <= 64 && "the pending mask holds one bit per processor");
}

std::uint64_t MessageLayer::Send(ProcId from, UnitId dst_unit, Request request) {
  Mailbox& box = MailboxOf(from);
  CSM_CHECK(box.done_seq.load(std::memory_order_acquire) == box.request.seq &&
            "one request in flight per processor: the previous one is unanswered");
  request.from_proc = from;
  request.seq = box.request.seq + 1;
  if (TraceActive()) {
    // Flow id (requester << 32 | seq) pairs this send with the responder's
    // kReqServe and the requester's kReqDone in the merged stream.
    TraceEmit(EventKind::kReqSend, request.page, 0,
              static_cast<std::uint32_t>(request.kind),
              (static_cast<std::uint64_t>(from) << 32) | request.seq);
  }
  box.request = request;
  // The release publishes the request to whichever poller sees the bit.
  inboxes_[static_cast<std::size_t>(dst_unit)].pending.fetch_or(
      std::uint64_t{1} << static_cast<unsigned>(from), std::memory_order_acq_rel);
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  return request.seq;
}

int MessageLayer::Poll(UnitId my_unit) {
  if (!HasPending(my_unit)) {
    return 0;
  }
  UnitInbox& inbox = inboxes_[static_cast<std::size_t>(my_unit)];
  if (!inbox.poll_lock.TryLock()) {
    return 0;  // another local processor is already serving
  }
  int handled = 0;
  // Scan up from processor 0, rereading the mask after each request, so a
  // request that lands ahead of the scan is served in this poll and one that
  // lands behind it waits for the next. Clearing a bit cannot lose a request:
  // its owner sends again only after Complete.
  std::uint64_t behind = 0;  // bits at or below the last processor served
  for (std::uint64_t waiting;
       (waiting = inbox.pending.load(std::memory_order_acquire) & ~behind) != 0;) {
    const int proc = std::countr_zero(waiting);
    inbox.pending.fetch_and(~(std::uint64_t{1} << proc), std::memory_order_relaxed);
    // Copy first: the requester may send again as soon as Complete runs.
    const Request request = MailboxOf(static_cast<ProcId>(proc)).request;
    CSM_CHECK(handler_ != nullptr);
    handler_->HandleRequest(request);
    ++handled;
    behind = (std::uint64_t{2} << proc) - 1;
  }
  inbox.poll_lock.Unlock();
  return handled;
}

void MessageLayer::Complete(ProcId requester, std::uint64_t seq, std::uint32_t flags,
                            VirtTime responder_vt) {
  if (TraceActive()) {
    TraceEmit(EventKind::kReqServe, kNoTracePage, 0, flags,
              (static_cast<std::uint64_t>(requester) << 32) | seq);
  }
  Mailbox& box = MailboxOf(requester);
  box.flags = flags;
  box.responder_vt = responder_vt;
  box.done_seq.store(seq, std::memory_order_release);
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cashmere
