#include "cashmere/vm/arena.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "cashmere/common/logging.hpp"

namespace cashmere {

Arena::Arena(std::size_t bytes, const char* name) : size_(bytes) {
  fd_ = memfd_create(name, 0);
  CSM_CHECK(fd_ >= 0);
  CSM_CHECK(ftruncate(fd_, static_cast<off_t>(bytes)) == 0);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  CSM_CHECK(p != MAP_FAILED);
  protocol_base_ = static_cast<std::byte*>(p);
}

Arena::Arena(Arena&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(std::exchange(other.size_, 0)),
      protocol_base_(std::exchange(other.protocol_base_, nullptr)) {}

Arena::~Arena() {
  if (protocol_base_ != nullptr) {
    munmap(protocol_base_, size_);
  }
  if (fd_ >= 0) {
    close(fd_);
  }
}

}  // namespace cashmere
