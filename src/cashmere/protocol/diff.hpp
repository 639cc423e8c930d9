// Diff engine (Sections 2.2 and 2.5): outgoing diffs propagate local
// modifications to the home node; incoming diffs merge remote modifications
// into the local copy without disturbing concurrent local writers — the
// paper's "two-way diffing", which replaces intra-node TLB shootdown.
//
// The engine is built from two cooperating layers:
//
//  1. A block-scanning core: pages are compared in 64-byte blocks, each
//     first XORed with wide loads (the prefilter) so clean blocks cost one
//     pass; only mismatching 64-bit chunks are confirmed word-by-word with
//     32-bit atomic loads (see word_access.hpp). Stores stay 32-bit atomic,
//     so MC's write grain is preserved exactly and word-level merge
//     semantics are unchanged from a word-at-a-time scan.
//  2. A run-length encoded diff format: maximal runs of consecutive
//     modified words, `DiffRun{offset, nwords}` plus a payload snapshot.
//     The runs are the unit in which outgoing diffs are written to the
//     home node (a run `McOp` through `McHub::Issue`) and accounted, and the in-memory form
//     used by tests and benches.
//
// Every scan covers the whole page: the paper finds modified words through
// VM write faults and twins (Sections 2.4-2.5), never by tracking stores.
//
// All comparisons and stores are 32-bit atomic (loads may be 64-bit
// chunked, which is never weaker than two successive 32-bit loads):
// data-race-free programs never race on a word, so word-level merging is
// exact.
#ifndef CASHMERE_PROTOCOL_DIFF_HPP_
#define CASHMERE_PROTOCOL_DIFF_HPP_

#include <cstddef>
#include <cstdint>

#include "cashmere/common/types.hpp"
#include "cashmere/common/word_access.hpp"

namespace cashmere {

// ---------------------------------------------------------------------------
// Run-length encoded diffs.

struct DiffRun {
  std::uint32_t offset_words;  // first modified word, page-relative
  std::uint32_t nwords;        // run length in 32-bit words
};

// Wire-format size of one run descriptor (offset + length); tracked by the
// kDiffRunBytes statistic. The payload itself is raw remote word writes on
// MC, so the Table 3 "Data" accounting charges payload bytes only, exactly
// as the word-at-a-time engine did.
inline constexpr std::size_t kDiffRunHeaderBytes = sizeof(DiffRun);

// Host-side scan instrumentation, surfaced as kDiffBlocks* counters.
struct DiffScanStats {
  std::uint64_t blocks_scanned = 0;  // blocks whose words were loaded
  std::uint64_t runs = 0;            // RLE runs emitted (or applied)
  std::uint64_t run_bytes = 0;       // wire bytes: payload + run headers
};

// A fixed-capacity encoded diff. Sized for the worst case (alternating
// dirty words), so encoding never allocates — the protocol's scratch
// instances are usable from the SIGSEGV fault path.
class DiffBuffer {
 public:
  static constexpr std::size_t kMaxRuns = kWordsPerPage / 2 + 1;

  void Clear() {
    nruns_ = 0;
    nwords_ = 0;
  }
  std::size_t run_count() const { return nruns_; }
  std::size_t words() const { return nwords_; }
  const DiffRun& run(std::size_t i) const { return runs_[i]; }
  // Payload of run i: words()-indexed slice starting at the run's cursor.
  const std::uint32_t* payload(std::size_t offset) const { return payload_ + offset; }
  std::size_t WireBytes() const {
    return nwords_ * kWordBytes + nruns_ * kDiffRunHeaderBytes;
  }

  // Appends `word` at page word-offset `index`, extending the current run
  // or opening a new one.
  void Append(std::uint32_t index, std::uint32_t word) {
    if (nruns_ == 0 || runs_[nruns_ - 1].offset_words + runs_[nruns_ - 1].nwords != index) {
      runs_[nruns_].offset_words = index;
      runs_[nruns_].nwords = 0;
      ++nruns_;
    }
    ++runs_[nruns_ - 1].nwords;
    payload_[nwords_++] = word;
  }

 private:
  std::size_t nruns_ = 0;
  std::size_t nwords_ = 0;
  DiffRun runs_[kMaxRuns];
  std::uint32_t payload_[kWordsPerPage];
};

// ---------------------------------------------------------------------------
// Encode / apply.

// Block-scans working vs twin and appends every modified word to `out` as
// RLE runs (runs freely straddle block boundaries). With `flush_update`
// the twin is synchronized from the payload snapshot during the scan, so
// twin and master receive bit-identical values even if a local writer
// races with the scan. Returns the number of modified words.
std::size_t EncodeOutgoingDiff(const std::byte* working, std::byte* twin, bool flush_update,
                               DiffBuffer& out, DiffScanStats* scan = nullptr);

// Word-atomic scatter of an encoded diff into a page image.
void ApplyDiffRuns(const DiffBuffer& diff, std::byte* dst);

// Outgoing diff: for every word where `working` differs from `twin`, write
// the working word to `master`. With `flush_update` the twin is updated
// too ("flush-update", Section 2.5), so later releases on this unit see
// these modifications as already flushed. Returns the number of words
// written. Block-scanned; allocation-free (fault-path safe).
std::size_t ApplyOutgoingDiff(const std::byte* working, std::byte* twin, std::byte* master,
                              bool flush_update, DiffScanStats* scan = nullptr);

// Incoming diff: for every word where `incoming` differs from `twin`,
// write the incoming word to both `working` and `twin`. Because programs
// are data-race-free, those words are exactly the remote modifications and
// never overlap concurrent local writes. Returns words applied.
std::size_t ApplyIncomingDiff(const std::byte* incoming, std::byte* twin, std::byte* working,
                              DiffScanStats* scan = nullptr);

// Full page copy (used when no local writer exists). Word-atomic.
void CopyPage(std::byte* dst, const std::byte* src);

// Debug-build verification that the RLE encode reproduces the word-level
// diff a plain word-by-word comparison finds (compiled out under NDEBUG; can be
// disabled for tests that race writers against the scanner, where the
// re-scan would be a false positive).
void SetDiffVerifyForTesting(bool enabled);

}  // namespace cashmere

#endif  // CASHMERE_PROTOCOL_DIFF_HPP_
