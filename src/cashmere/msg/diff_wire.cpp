#include "cashmere/msg/diff_wire.hpp"

#include <cstring>

namespace cashmere {

std::size_t SerializeDiffRuns(PageId page, const DiffBuffer& diff, DiffWireSlot& slot) {
  slot.page = page;
  slot.nruns = static_cast<std::uint32_t>(diff.run_count());
  slot.nwords = static_cast<std::uint32_t>(diff.words());
  std::byte* cursor = slot.wire;
  for (std::size_t r = 0; r < diff.run_count(); ++r) {
    const DiffRun run = diff.run(r);
    // csm-lint: allow(raw-page-copy) -- wire slot is private to the flushing
    // processor; word atomicity is re-established by the replay's MC writes.
    std::memcpy(cursor, &run, kDiffRunHeaderBytes);
    cursor += kDiffRunHeaderBytes;
  }
  // The payload is the encoder's snapshot (already word-exact values); the
  // slot is private to the flushing processor, so plain copies suffice —
  // word atomicity is re-established by the replay's remote writes.
  std::memcpy(cursor, diff.payload(0), diff.words() * kWordBytes);  // csm-lint: allow(raw-page-copy) -- private slot, as above
  return diff.WireBytes();
}

std::size_t ReplayDiffWire(const DiffWireSlot& slot, McHub& hub, std::byte* master_base) {
  const std::byte* headers = slot.wire;
  const std::byte* payload =
      slot.wire + static_cast<std::size_t>(slot.nruns) * kDiffRunHeaderBytes;
  std::size_t cursor_words = 0;
  for (std::uint32_t r = 0; r < slot.nruns; ++r) {
    DiffRun run;
    // csm-lint: allow(raw-page-copy) -- deserializes a header out of the
    // private wire slot into a local; page data flows through hub.Issue.
    std::memcpy(&run, headers + static_cast<std::size_t>(r) * kDiffRunHeaderBytes,
                kDiffRunHeaderBytes);
    hub.Issue(McOp::Run(master_base, run.offset_words,
                        payload + cursor_words * kWordBytes, run.nwords,
                        Traffic::kDiffData));
    cursor_words += run.nwords;
  }
  return cursor_words * kWordBytes +
         static_cast<std::size_t>(slot.nruns) * kDiffRunHeaderBytes;
}

}  // namespace cashmere
