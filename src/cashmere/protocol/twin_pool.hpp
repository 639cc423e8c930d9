// Twin storage (Section 2.5).
//
// A twin is a pristine copy of a page: the unit's latest view of the home
// node's master copy. Twins are compared against the working copy to
// extract outgoing diffs, and against incoming page images to extract
// incoming diffs (two-way diffing).
//
// Twins live in a lazily-populated anonymous mapping with one fixed slot
// per page, so twin creation never allocates (the fault path runs inside a
// signal handler).
#ifndef CASHMERE_PROTOCOL_TWIN_POOL_HPP_
#define CASHMERE_PROTOCOL_TWIN_POOL_HPP_

#include <cstddef>

#include "cashmere/common/types.hpp"

namespace cashmere {

class TwinPool {
 public:
  explicit TwinPool(std::size_t heap_bytes);
  ~TwinPool();
  TwinPool(const TwinPool&) = delete;
  TwinPool& operator=(const TwinPool&) = delete;

  std::byte* TwinPtr(PageId page) const { return base_ + static_cast<std::size_t>(page) * kPageBytes; }

 private:
  std::size_t size_;
  std::byte* base_ = nullptr;
};

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_TWIN_POOL_HPP_
