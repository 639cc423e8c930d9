// Polling-based explicit requests (Section 2.3, Figures 2 and 5).
//
// The Memory Channel supports no remote reads, so reading remote data needs
// a message-passing protocol: the requester deposits a request in a
// per-(destination, source) bin inside the destination's receive region and
// raises the destination's polling flag; any processor of the destination
// unit notices the flag at its next poll, drains the bins, and writes the
// reply (page data) into the requester's reply buffer.
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
#include "cashmere/mc/hub.hpp"

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

// One reply buffer per processor ("page read buffers" in the paper).
struct ReplySlot {
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

  // Deposits a request for `dst_unit`. Returns the sequence number to wait
  // on if a reply is expected.
  std::uint64_t Send(ProcId from, UnitId dst_unit, Request request);

  // Drains this unit's bins if any requests are pending. Returns the number
  // of requests handled. Cheap when idle (one relaxed load).
  int Poll(UnitId my_unit);

  bool HasPending(UnitId my_unit) const {
    return pending_[static_cast<std::size_t>(my_unit)].v.load(std::memory_order_acquire) > 0;
  }

  // Reply path: the responder fills `slot.data`/flags and then calls
  // Complete. The requester's wait loop lives in the protocol (it must poll
  // its own unit while waiting, to avoid cross-unit deadlock).
  ReplySlot& SlotOf(ProcId proc) { return slots_[static_cast<std::size_t>(proc)]; }
  void Complete(ProcId requester, std::uint64_t seq, std::uint32_t flags, VirtTime responder_vt);

  // Global progress heartbeat for the deadlock watchdog.
  std::uint64_t heartbeat() const { return heartbeat_.load(std::memory_order_relaxed); }

 private:
  struct Bin {
    SpinLock producer_lock;
    static constexpr std::size_t kCapacity = 1024;
    std::atomic<std::uint64_t> head{0};  // next slot to fill
    std::atomic<std::uint64_t> tail{0};  // next slot to drain
    Request ring[kCapacity];
  };
  struct alignas(64) PaddedAtomicInt {
    std::atomic<int> v{0};
  };
  struct alignas(64) PaddedSpinLock {
    SpinLock lock;
  };

  Bin& BinOf(UnitId dst, UnitId src) {
    return bins_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(units_) +
                 static_cast<std::size_t>(src)];
  }

  int units_;
  RequestHandler* handler_ = nullptr;
  std::vector<Bin> bins_;                  // [dst_unit][src_unit]
  std::vector<PaddedAtomicInt> pending_;   // per destination unit
  std::vector<PaddedSpinLock> poll_locks_; // per destination unit
  std::vector<ReplySlot> slots_;           // per processor
  std::vector<std::atomic<std::uint64_t>> next_seq_;  // per processor
  std::vector<UnitId> unit_of_proc_;
  std::atomic<std::uint64_t> heartbeat_{0};
};

}  // namespace cashmere

#endif  // CASHMERE_MSG_MESSAGE_LAYER_HPP_
