// Word-at-a-time reference scanners for the diff engine's tests: the seed
// implementation, kept as the oracle the block-scanned engine
// (protocol/diff.hpp) must match word for word.
#ifndef CASHMERE_TESTS_DIFF_ORACLE_HPP_
#define CASHMERE_TESTS_DIFF_ORACLE_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "cashmere/common/types.hpp"
#include "cashmere/common/word_access.hpp"

namespace cashmere {

inline std::size_t ApplyOutgoingDiffWordScan(const std::byte* working, std::byte* twin,
                                             std::byte* master, bool flush_update) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    const std::uint32_t w = LoadWord32Relaxed(working, i);
    if (w != LoadWord32Relaxed(twin, i)) {
      StoreWord32Relaxed(master, i, w);
      if (flush_update) {
        StoreWord32Relaxed(twin, i, w);
      }
      ++changed;
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
  return changed;
}

inline std::size_t ApplyIncomingDiffWordScan(const std::byte* incoming, std::byte* twin,
                                             std::byte* working) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    const std::uint32_t in = LoadWord32Relaxed(incoming, i);
    if (in != LoadWord32Relaxed(twin, i)) {
      StoreWord32Relaxed(working, i, in);
      StoreWord32Relaxed(twin, i, in);
      ++changed;
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
  return changed;
}

// Number of words differing between two page images (no writes).
inline std::size_t CountDiffWords(const std::byte* a, const std::byte* b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kWordsPerPage; ++i) {
    if (LoadWord32Relaxed(a, i) != LoadWord32Relaxed(b, i)) {
      ++n;
    }
  }
  return n;
}

}  // namespace cashmere

#endif  // CASHMERE_TESTS_DIFF_ORACLE_HPP_
