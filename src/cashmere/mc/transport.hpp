// McTransport — the pluggable remote-write transport behind McHub.
//
// DEC's Memory Channel is a remote-write network: the full vocabulary the
// Cashmere protocol needs from it is five operations (one unordered word
// write, an unordered word-stream write, an RLE diff-run scatter, and the
// totally-ordered broadcast/exchange pair used for control words), plus
// segment registration so receive regions can be named position-
// independently. This header defines that vocabulary as a typed `McOp`
// descriptor and an abstract `McTransport` that executes it, so the MC
// layer can be re-pointed at different "wires":
//
//   InProcTransport (mc/inproc_transport.hpp) — the historical behaviour:
//     every emulated node lives in this process, a remote write is an
//     atomic 32-bit store into the receiver's memory, ordering is a spin
//     lock. The default; counters are byte-identical to the pre-transport
//     McHub.
//   ShmTransport (mc/shm_transport.hpp) — one OS process per node: arenas
//     live on memfd_create segments mapped into every node process, so a
//     remote write really lands in another process's address space;
//     ordered operations serialize through a futex-or-spin lock word in a
//     shared control segment; bootstrap/barrier/teardown ride a small UDS
//     control plane (mc/control_plane.hpp, tools/cashmere_launch).
//
// McHub stays the accounting and bus-reservation chokepoint: every op is
// issued through McHub::Issue, which charges traffic once (single funnel)
// and delegates the raw write to the bound transport.
#ifndef CASHMERE_MC_TRANSPORT_HPP_
#define CASHMERE_MC_TRANSPORT_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/types.hpp"

#include <memory>

namespace cashmere {

class InProcTransport;
struct Config;

// Traffic classes, for the Table 3 "Data" row and the MC accounting tests.
enum class Traffic : int {
  kDirectory = 0,
  kSyncObject,
  kWriteNotice,
  kRequest,
  kPageData,   // full page transfers (fetch replies, exclusive flushes)
  kDiffData,   // outgoing diffs flushed to home nodes
  kNumClasses,
};
inline constexpr int kNumTrafficClasses = static_cast<int>(Traffic::kNumClasses);

// --- Segments -------------------------------------------------------------
// A segment is one registered shared-memory region (an arena, in practice).
// Segment ids are dense and assigned in registration order; with arenas
// registered unit-by-unit at Runtime construction, segment id == unit id.

using SegmentId = std::uint32_t;
inline constexpr SegmentId kInvalidSegment = static_cast<SegmentId>(-1);

struct SegmentInfo {
  int fd = -1;             // backing memfd (not owned by the transport)
  std::size_t bytes = 0;
  UnitId owner = -1;       // unit whose "physical memory" this segment is
};

// Position-independent name for a page frame: segment + byte offset. A
// frame ref is valid in every process of the cluster, unlike a raw
// pointer, because shm-mapped arenas land at different base addresses per
// process. Resolution back to a local pointer is the inline fast path
// McTransport::Resolve below — one indexed load, so inproc mode pays
// nothing for the indirection.
struct PageFrameRef {
  SegmentId seg = kInvalidSegment;
  std::uint64_t offset = 0;
};

// --- The remote-write vocabulary ------------------------------------------

enum class McOpKind : std::uint8_t {
  kWrite32 = 0,           // unordered remote write of one word
  kWriteStream,           // unordered remote write of a word stream
  kWriteRun,              // RLE diff run: scatter payload at a word offset
  kOrderedBroadcast32,    // totally-ordered broadcast of one word
  kOrderedExchange32,     // ordered read-modify-broadcast (returns previous)
};

// One remote-write operation, fully described. Call sites build a typed
// descriptor with the named constructors and funnel it through
// McHub::Issue; the per-op wire-byte math lives here (WireBytes) so the
// accounting cannot drift between backends.
struct McOp {
  McOpKind kind = McOpKind::kWrite32;
  Traffic traffic = Traffic::kDirectory;
  void* dst = nullptr;          // destination word or stream/run base
  const void* src = nullptr;    // payload (stream/run ops)
  std::uint32_t value = 0;      // payload (word ops)
  std::size_t words = 0;        // payload length in 32-bit words
  std::size_t offset_words = 0; // run scatter offset from dst

  // Unordered remote write of a single word.
  static McOp Word(std::uint32_t* dst, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWrite32;
    op.traffic = t;
    op.dst = dst;
    op.value = value;
    return op;
  }
  // Unordered remote write of `words` words into one destination node's
  // receive region (page data, diffs, write notices). Word-atomic.
  static McOp Stream(void* dst, const void* src, std::size_t words, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWriteStream;
    op.traffic = t;
    op.dst = dst;
    op.src = src;
    op.words = words;
    return op;
  }
  // One RLE diff run: scatters `nwords` payload words into `dst_base` at
  // word offset `offset_words`. On MC a diff run is raw remote writes of
  // the modified words, so traffic is the payload bytes only.
  static McOp Run(void* dst_base, std::size_t offset_words, const void* payload,
                  std::size_t nwords, Traffic t) {
    McOp op;
    op.kind = McOpKind::kWriteRun;
    op.traffic = t;
    op.dst = dst_base;
    op.src = payload;
    op.words = nwords;
    op.offset_words = offset_words;
    return op;
  }
  // Totally-ordered broadcast of one word to a replicated location.
  // Issue returns only after the write is globally performed (loop-back
  // semantics). Traffic is accounted as one write per replica.
  static McOp Broadcast(std::uint32_t* location, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kOrderedBroadcast32;
    op.traffic = t;
    op.dst = location;
    op.value = value;
    return op;
  }
  // Ordered read-modify-broadcast: applies `value` and returns the previous
  // value, all inside the global order. Used to resolve races the real
  // protocol resolves through MC's total write ordering (e.g. concurrent
  // exclusive-mode claims).
  static McOp Exchange(std::uint32_t* location, std::uint32_t value, Traffic t) {
    McOp op;
    op.kind = McOpKind::kOrderedExchange32;
    op.traffic = t;
    op.dst = location;
    op.value = value;
    return op;
  }

  // Wire bytes this op charges, exactly matching the historical per-call
  // accounting: broadcasts charge one word per replica, streams and runs
  // charge their payload.
  std::size_t WireBytes(int units) const {
    switch (kind) {
      case McOpKind::kWrite32:
        return kWordBytes;
      case McOpKind::kWriteStream:
      case McOpKind::kWriteRun:
        return words * kWordBytes;
      case McOpKind::kOrderedBroadcast32:
      case McOpKind::kOrderedExchange32:
        return kWordBytes * static_cast<std::size_t>(units);
    }
    return 0;
  }
};

// --- The transport interface ----------------------------------------------

class McTransport {
 public:
  McTransport() = default;
  virtual ~McTransport() = default;
  McTransport(const McTransport&) = delete;
  McTransport& operator=(const McTransport&) = delete;

  virtual const char* name() const = 0;

  // Executes the remote write `op` describes against this transport's
  // wire. Returns the previous word value for kOrderedExchange32, 0 for
  // every other kind. Must provide: 32-bit write atomicity for all kinds,
  // a single global order observed identically everywhere for the ordered
  // kinds, and loop-back (the write is globally performed on return).
  virtual std::uint32_t Execute(const McOp& op) = 0;

  // --- Segment registration (control plane) -------------------------------

  // Announces a shared segment and this process's mapping of it. Returns
  // the dense SegmentId used by PageFrameRef. `local_base` is where the
  // caller mapped the segment in this address space.
  virtual SegmentId RegisterArena(const SegmentInfo& info, std::byte* local_base) {
    segments_.push_back(info);
    bases_.push_back(local_base);
    return static_cast<SegmentId>(segments_.size() - 1);
  }

  // Local mapping of a registered segment — in another process of the
  // cluster this returns a different address for the same frames; that is
  // the indirection PageFrameRef exists to cross.
  virtual std::byte* MapRemote(SegmentId seg) const {
    CSM_CHECK(seg < bases_.size());
    return bases_[static_cast<std::size_t>(seg)];
  }

  // Resolves a frame ref to a pointer in this process. Inline, one indexed
  // load — the fast path that keeps base-relative addressing free for the
  // in-process backend.
  std::byte* Resolve(PageFrameRef ref) const {
    return bases_[static_cast<std::size_t>(ref.seg)] + ref.offset;
  }

  std::size_t segment_count() const { return segments_.size(); }
  const SegmentInfo& segment(SegmentId seg) const {
    CSM_CHECK(seg < segments_.size());
    return segments_[static_cast<std::size_t>(seg)];
  }

  // Number of OS processes in the cluster this transport spans; 1 for
  // in-process transports and shm solo mode. The runtime uses it to
  // validate that the configured cluster shape matches what was launched.
  virtual int cluster_processes() const { return 1; }

  // If the transport hosts the backing storage for unit arenas (the shm
  // backend: segments are created by the owning node's process and
  // fd-passed at bootstrap), returns a dup'd fd the caller adopts and maps.
  // Returns -1 when the caller should create its own backing (inproc).
  virtual int ArenaFdFor(UnitId unit, std::size_t bytes) { return -1; }

  // Devirtualization hook: non-null iff this is the in-process backend.
  // McHub caches the result so the default configuration dispatches through
  // a direct (inlinable) call instead of the vtable — that is what keeps
  // the seam within the bench_transport ≤5% gate.
  virtual InProcTransport* AsInProc() { return nullptr; }

  // --- Control-plane handshake --------------------------------------------
  // BeginBoot: a new Runtime is about to register arenas against this
  // transport. A transport can outlive a Runtime (the auto-dilation rerun
  // binds a second Runtime to the same cluster), so the segment table
  // resets here; the shm backend additionally tells its peers to drop the
  // previous boot's segments (kSegReset).
  virtual void BeginBoot() {
    segments_.clear();
    bases_.clear();
  }
  // Cluster-wide hooks around each Runtime::Run: bootstrap synchronization
  // before processor threads start, and post-run verification/teardown
  // (the shm backend checks that every peer process observes the bytes the
  // run wrote into its segments). No-ops for in-process transports.
  virtual void BeginRun() {}
  virtual void EndRun() {}

  // --- Post-run reporting --------------------------------------------------
  // Measured wall-clock nanoseconds spent inside Execute, for transports
  // whose wire is real (shm). 0 for modeled transports, whose cost lives in
  // virtual time instead.
  virtual std::uint64_t wire_ns() const { return 0; }
  // False iff a cross-process verification step failed (a peer's view of a
  // shared segment disagreed with ours, or a peer died). Always true for
  // single-process transports.
  virtual bool peers_verified() const { return true; }

 protected:
  std::vector<SegmentInfo> segments_;
  std::vector<std::byte*> bases_;  // this process's mapping per segment
};

// Builds the transport Config::mc selects: kInProc -> InProcTransport,
// kShm -> ShmTransport (cluster mode when the cashmere_launch environment
// is present, solo otherwise).
std::unique_ptr<McTransport> MakeTransport(const Config& cfg);

}  // namespace cashmere

#endif  // CASHMERE_MC_TRANSPORT_HPP_
