// Known-bad fixture: raw stores into a unit's arena from protocol code.
// PagePtr/protocol_base mint a raw pointer into an arena frame, and a store
// through it bypasses the McHub::Issue accounting funnel. Protocol code
// must take frames from its frame accessors (CashmereProtocol::MasterPtr /
// WorkingPtr; RelocateSuperpage moves master frames), the only functions
// outside mc/ that may mint one.
//
// csm-lint-domain: protocol
// csm-lint-expect: raw-mc-write  (PagePtr call minting the raw pointer)
// csm-lint-expect: raw-mc-write  (protocol_base arithmetic doing the same)
// (CashmereProtocol::MasterPtr below is a frame accessor and stays clean.)
#include <cstddef>
#include <cstdint>

namespace fixture {

struct FakeArena {
  std::byte* PagePtr(std::uint32_t page) const;
  std::byte* protocol_base() const;
};

void StoreWord32Release(void* p, std::uint32_t v);

void BadDirectStores(const FakeArena& arena, std::uint32_t page) {
  std::byte* frame = arena.PagePtr(page);  // raw pointer into the frame
  StoreWord32Release(frame, 1u);
  StoreWord32Release(arena.protocol_base() + 64, 2u);  // same, by hand
}

// The frame accessor itself may mint the pointer: no finding here.
class CashmereProtocol {
 public:
  std::byte* MasterPtr(const FakeArena& arena, std::uint32_t page) const;
};

std::byte* CashmereProtocol::MasterPtr(const FakeArena& arena, std::uint32_t page) const {
  return arena.PagePtr(page);
}

}  // namespace fixture
