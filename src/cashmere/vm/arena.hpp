// A node arena is the "physical memory" of one coherence unit: a memfd
// holding the unit's copy of the entire shared heap. Multiple views
// (per-processor mappings) of the same arena share frames, so processors
// within an SMP node are kept hardware-coherent by the host, exactly as in
// the paper's AlphaServers. The protocol itself accesses arenas through an
// always-read-write mapping that never faults.
#ifndef CASHMERE_VM_ARENA_HPP_
#define CASHMERE_VM_ARENA_HPP_

#include <cstddef>
#include <cstdint>

#include "cashmere/common/types.hpp"

namespace cashmere {

class Arena {
 public:
  // Creates a fresh memfd of `bytes` and maps it.
  Arena(std::size_t bytes, const char* name);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&&) = delete;

  int fd() const { return fd_; }
  std::size_t size() const { return size_; }

  // The protocol's unprotected read-write mapping of the whole arena.
  std::byte* protocol_base() const { return protocol_base_; }
  std::byte* PagePtr(PageId page) const { return protocol_base_ + page * kPageBytes; }

 private:
  int fd_ = -1;
  std::size_t size_ = 0;
  std::byte* protocol_base_ = nullptr;
};

}  // namespace cashmere

#endif  // CASHMERE_VM_ARENA_HPP_
