// Shared atomic word-access helpers and block-scan geometry.
//
// All shared-page data movement in the system is 32-bit word-atomic,
// mirroring the Memory Channel's write grain: data-race-free programs never
// race on a word, so word-granularity comparison and merging are exact.
// Both the MC hub (`CopyWords32`) and the diff engine express their accesses
// through the helpers below so the two implementations cannot drift, and so
// the access idiom is `std::atomic_ref` (well-defined on live objects)
// rather than the `reinterpret_cast<std::atomic<T>*>` punning it replaces.
//
// The diff engine additionally scans pages in 64-byte blocks (geometry
// below). Its wide-load mismatch prefilter is deliberately non-atomic —
// see BlockXorChunks in diff.cpp for why that is sound — but every word it
// flags is re-read and every store is issued through the 32-bit atomic
// helpers here, preserving MC write atomicity at every boundary.
#ifndef CASHMERE_COMMON_WORD_ACCESS_HPP_
#define CASHMERE_COMMON_WORD_ACCESS_HPP_

#include <atomic>
#include <cstdint>

#include "cashmere/common/types.hpp"

namespace cashmere {

// Block-scan geometry: 64-byte blocks (one cache line), 8-byte chunks.
inline constexpr std::size_t kBlockBytes = 64;
inline constexpr std::size_t kWordsPerBlock = kBlockBytes / kWordBytes;        // 16
inline constexpr std::size_t kBlocksPerPage = kPageBytes / kBlockBytes;        // 128
inline constexpr std::size_t kChunkBytes = sizeof(std::uint64_t);
inline constexpr std::size_t kChunksPerBlock = kBlockBytes / kChunkBytes;      // 8
inline constexpr std::size_t kWordsPerChunk = kChunkBytes / kWordBytes;        // 2

static_assert(std::atomic_ref<std::uint32_t>::is_always_lock_free);

// 32-bit word accesses (the MC write grain). `p` must be 4-byte aligned.
inline std::uint32_t LoadWord32Relaxed(const void* p, std::size_t word = 0) {
  auto* w = const_cast<std::uint32_t*>(static_cast<const std::uint32_t*>(p)) + word;
  return std::atomic_ref<std::uint32_t>(*w).load(std::memory_order_relaxed);
}

inline void StoreWord32Relaxed(void* p, std::size_t word, std::uint32_t v) {
  auto* w = static_cast<std::uint32_t*>(p) + word;
  std::atomic_ref<std::uint32_t>(*w).store(v, std::memory_order_relaxed);
}

inline std::uint32_t LoadWord32Acquire(const void* p) {
  auto* w = const_cast<std::uint32_t*>(static_cast<const std::uint32_t*>(p));
  return std::atomic_ref<std::uint32_t>(*w).load(std::memory_order_acquire);
}

inline void StoreWord32Release(void* p, std::uint32_t v) {
  std::atomic_ref<std::uint32_t>(*static_cast<std::uint32_t*>(p))
      .store(v, std::memory_order_release);
}

inline bool Chunk64Aligned(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % alignof(std::uint64_t)) == 0;
}

}  // namespace cashmere

#endif  // CASHMERE_COMMON_WORD_ACCESS_HPP_
