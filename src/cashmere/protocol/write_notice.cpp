#include "cashmere/protocol/write_notice.hpp"

namespace cashmere {

PageNoticeQueue::PageNoticeQueue(std::size_t pages)
    : bitmap_((pages + 31) / 32), ring_(pages == 0 ? 1 : pages) {
  for (auto& w : bitmap_) {
    w.store(0, std::memory_order_relaxed);
  }
}

bool PageNoticeQueue::TestAndSetBit(PageId page) {
  std::atomic<std::uint32_t>& word = bitmap_[page / 32];
  const std::uint32_t mask = 1u << (page % 32);
  const std::uint32_t prev = word.fetch_or(mask, std::memory_order_acq_rel);
  return (prev & mask) == 0;
}

void PageNoticeQueue::ClearBit(PageId page) {
  bitmap_[page / 32].fetch_and(~(1u << (page % 32)), std::memory_order_acq_rel);
}

bool PageNoticeQueue::Post(PageId page) {
  if (!TestAndSetBit(page)) {
    return false;  // already pending; one queue entry covers both notices
  }
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  ring_[head % ring_.size()] = page;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

WriteNoticeBoard::WriteNoticeBoard(const Config& cfg, McHub& hub)
    : units_(cfg.units()), hub_(hub), consumer_locks_(static_cast<std::size_t>(cfg.units())) {
  const std::size_t pages = cfg.pages();
  for (int dst = 0; dst < units_; ++dst) {
    for (int src = 0; src < units_; ++src) {
      global_.emplace_back(pages);
    }
  }
  for (int p = 0; p < cfg.total_procs(); ++p) {
    local_.emplace_back(pages);
  }
}

void WriteNoticeBoard::PostGlobal(UnitId dst_unit, UnitId src_unit, PageId page) {
  PageNoticeQueue& bin = GlobalBin(dst_unit, src_unit);
  // Multiple processors of src_unit may produce into the same bin; they
  // serialize on an intra-node lock (invisible to other nodes).
  SpinLockGuard guard(bin.producer_lock);
  bin.Post(page);
  hub_.AccountWrite(Traffic::kWriteNotice, kWordBytes);
}

bool WriteNoticeBoard::GlobalPending(UnitId self) const {
  for (int src = 0; src < units_; ++src) {
    if (src != self && !GlobalBin(self, src).Empty()) {
      return true;
    }
  }
  return false;
}

bool WriteNoticeBoard::MayHoldGlobalNotice(UnitId self, PageId page) const {
  for (int src = 0; src < units_; ++src) {
    if (src != self && GlobalBin(self, src).Pending(page)) {
      return true;
    }
  }
  // Read after the bits: a drainer that cleared this page's bit had
  // already raised the count, and cannot lower it before it stamps the
  // page, which needs the page lock the caller holds.
  return consumer_locks_[static_cast<std::size_t>(self)].draining.load(
             std::memory_order_acquire) != 0;
}

void WriteNoticeBoard::PostLocal(ProcId proc, PageId page) {
  PageNoticeQueue& q = local_[static_cast<std::size_t>(proc)];
  SpinLockGuard guard(q.producer_lock);
  q.Post(page);
}

}  // namespace cashmere
