#include "cashmere/mc/hub.hpp"

#include <cstring>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/trace.hpp"

namespace cashmere {

void CopyWords32(void* dst, const void* src, std::size_t words) {
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < words; ++i) {
    // The source may be concurrently written (race-free programs never race
    // on the same word, but neighbouring words of a page move while we
    // copy), so loads are atomic too.
    StoreWord32Relaxed(d, i, LoadWord32Relaxed(s, i));
  }
  std::atomic_thread_fence(std::memory_order_release);
}

std::uint32_t LoadWord32(const void* src) { return LoadWord32Acquire(src); }

void StoreWord32(void* dst, std::uint32_t value) { StoreWord32Release(dst, value); }

VirtTime McHub::ReserveBus(VirtTime earliest, std::size_t bytes) {
  if (ns_per_byte_ <= 0.0) {
    return earliest;
  }
  const auto duration =
      static_cast<std::uint64_t>(static_cast<double>(bytes) * ns_per_byte_);
  std::uint64_t seen = bus_clock_.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t start = seen > earliest ? seen : earliest;
    const std::uint64_t end = start + duration;
    if (bus_clock_.compare_exchange_weak(seen, end, std::memory_order_acq_rel)) {
      return end;
    }
  }
}

std::uint64_t McHub::TotalBytes() const {
  std::uint64_t total = 0;
  for (const auto& b : bytes_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t McHub::DataBytes() const {
  return BytesSent(Traffic::kPageData) + BytesSent(Traffic::kDiffData) +
         BytesSent(Traffic::kWriteNotice);
}

}  // namespace cashmere
