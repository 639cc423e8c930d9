#include "cashmere/protocol/twin_pool.hpp"

#include <sys/mman.h>

#include "cashmere/common/logging.hpp"

namespace cashmere {

TwinPool::TwinPool(std::size_t heap_bytes) : size_(heap_bytes) {
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CSM_CHECK(p != MAP_FAILED);
  base_ = static_cast<std::byte*>(p);
}

TwinPool::~TwinPool() {
  if (base_ != nullptr) {
    munmap(base_, size_);
  }
}

}  // namespace cashmere
