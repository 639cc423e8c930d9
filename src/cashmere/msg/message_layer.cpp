#include "cashmere/msg/message_layer.hpp"

#include "cashmere/common/logging.hpp"
#include "cashmere/common/trace.hpp"

namespace cashmere {

MessageLayer::MessageLayer(const Config& cfg)
    : units_(cfg.units()),
      bins_(static_cast<std::size_t>(units_) * static_cast<std::size_t>(units_)),
      pending_(static_cast<std::size_t>(units_)),
      poll_locks_(static_cast<std::size_t>(units_)),
      slots_(static_cast<std::size_t>(cfg.total_procs())),
      next_seq_(static_cast<std::size_t>(cfg.total_procs())) {
  for (auto& s : next_seq_) {
    s.store(0, std::memory_order_relaxed);
  }
  unit_of_proc_.resize(static_cast<std::size_t>(cfg.total_procs()));
  for (ProcId p = 0; p < cfg.total_procs(); ++p) {
    unit_of_proc_[static_cast<std::size_t>(p)] = cfg.UnitOfProc(p);
  }
}

std::uint64_t MessageLayer::Send(ProcId from, UnitId dst_unit, Request request) {
  request.from_proc = from;
  request.seq = next_seq_[static_cast<std::size_t>(from)].fetch_add(1) + 1;
  if (TraceActive()) {
    // Flow id (requester << 32 | seq) pairs this send with the responder's
    // kReqServe and the requester's kReqDone in the merged stream.
    TraceEmit(EventKind::kReqSend, request.page, 0,
              static_cast<std::uint32_t>(request.kind),
              (static_cast<std::uint64_t>(from) << 32) | request.seq);
  }
  const UnitId src_unit = unit_of_proc_[static_cast<std::size_t>(from)];
  Bin& bin = BinOf(dst_unit, src_unit);
  Backoff backoff;
  bin.producer_lock.Lock();
  // Wait for ring space (drained by the destination's pollers).
  while (bin.head.load(std::memory_order_relaxed) -
             bin.tail.load(std::memory_order_acquire) >=
         Bin::kCapacity) {
    backoff.Pause();
  }
  const std::uint64_t head = bin.head.load(std::memory_order_relaxed);
  bin.ring[head % Bin::kCapacity] = request;
  bin.head.store(head + 1, std::memory_order_release);
  bin.producer_lock.Unlock();
  pending_[static_cast<std::size_t>(dst_unit)].v.fetch_add(1, std::memory_order_acq_rel);
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  return request.seq;
}

int MessageLayer::Poll(UnitId my_unit) {
  if (!HasPending(my_unit)) {
    return 0;
  }
  SpinLock& poll_lock = poll_locks_[static_cast<std::size_t>(my_unit)].lock;
  if (!poll_lock.TryLock()) {
    return 0;  // another local processor is already draining
  }
  int handled = 0;
  for (int src = 0; src < units_; ++src) {
    Bin& bin = BinOf(my_unit, src);
    while (true) {
      const std::uint64_t tail = bin.tail.load(std::memory_order_relaxed);
      if (tail == bin.head.load(std::memory_order_acquire)) {
        break;
      }
      Request request = bin.ring[tail % Bin::kCapacity];
      bin.tail.store(tail + 1, std::memory_order_release);
      pending_[static_cast<std::size_t>(my_unit)].v.fetch_sub(1, std::memory_order_acq_rel);
      CSM_CHECK(handler_ != nullptr);
      handler_->HandleRequest(request);
      ++handled;
    }
  }
  poll_lock.Unlock();
  if (handled > 0) {
    heartbeat_.fetch_add(static_cast<std::uint64_t>(handled), std::memory_order_relaxed);
  }
  return handled;
}

void MessageLayer::Complete(ProcId requester, std::uint64_t seq, std::uint32_t flags,
                            VirtTime responder_vt) {
  if (TraceActive()) {
    TraceEmit(EventKind::kReqServe, kNoTracePage, 0, flags,
              (static_cast<std::uint64_t>(requester) << 32) | seq);
  }
  ReplySlot& slot = SlotOf(requester);
  slot.flags = flags;
  slot.responder_vt = responder_vt;
  slot.done_seq.store(seq, std::memory_order_release);
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cashmere
