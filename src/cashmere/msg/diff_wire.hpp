// Run-serialized diff transport.
//
// The seed shipped outgoing diffs by walking the in-memory DiffBuffer and
// issuing one remote write per run. This layer finishes the wire format:
// the encoded diff — DiffRun headers followed by the payload snapshot — is
// serialized into the wire image of a release record (CoherenceRecord, one
// per processor plus the log entries), and the apply side replays the runs
// directly from that image into the home node's master copy (one run McOp
// issued through the hub per run), never re-scanning the page word-by-word
// on the receive side.
//
// The synchronous drain policy replays on the sender, which is faithful to
// the Memory Channel: a diff flush is DMA of the modified words into the
// home node's receive region, performed by the sender's writes themselves;
// the asynchronous policy replays the same image on the unit's cache agent.
// Traffic accounting is byte-identical to the seed's direct loop (payload
// bytes, one accounted write per run): the run headers are host-side
// framing, never MC traffic.
#ifndef CASHMERE_MSG_DIFF_WIRE_HPP_
#define CASHMERE_MSG_DIFF_WIRE_HPP_

#include <cstddef>
#include <cstdint>

#include "cashmere/common/types.hpp"
#include "cashmere/mc/hub.hpp"
#include "cashmere/protocol/diff.hpp"

namespace cashmere {

// One serialized diff: [nruns run headers][nwords payload words], plus
// host-side metadata. Sized for the worst case (alternating dirty words)
// and preallocated, so serialization never allocates — the flush paths
// run inside the SIGSEGV fault handler.
struct DiffWireSlot {
  PageId page = kInvalidPage;
  std::uint32_t nruns = 0;
  std::uint32_t nwords = 0;
  alignas(64) std::byte wire[DiffBuffer::kMaxRuns * kDiffRunHeaderBytes + kPageBytes];
};

// Serializes `diff` into `slot`. Returns the wire size in bytes
// (headers + payload), i.e. diff.WireBytes().
std::size_t SerializeDiffRuns(PageId page, const DiffBuffer& diff, DiffWireSlot& slot);

// Replays a serialized diff into the page frame at `master_base`: one
// run McOp issued through the hub per run, scattering exactly the modified
// words. Returns the wire bytes consumed, surfaced as the
// kDiffRunApplyBytes statistic.
std::size_t ReplayDiffWire(const DiffWireSlot& slot, McHub& hub, std::byte* master_base);

}  // namespace cashmere

#endif  // CASHMERE_MSG_DIFF_WIRE_HPP_
