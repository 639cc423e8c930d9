#include "cashmere/protocol/diff.hpp"

#include <atomic>
#include <cstring>

#include "cashmere/common/logging.hpp"

namespace cashmere {

namespace {

#ifndef NDEBUG
// Debug-only: re-derive the word-level diff with the reference scanner and
// check the RLE encode covers exactly the same words. Off by default: the
// re-scan races with writers that mutate `working` mid-flush, which is
// legal for the engine (the writer's own release re-flushes) but a false
// positive here. Single-threaded tests switch it on.
std::atomic<bool> g_diff_verify{false};
#endif

// Block mismatch prefilter: XORs two 64-byte blocks with plain (non-atomic)
// wide loads — SIMD via GNU vector extensions where available — writing the
// eight chunk XORs to `x`; returns true when the block is clean (all zero).
// The per-object atomic loads never vectorize, and this single pass is what
// makes skipping clean blocks cheap. These reads are not atomic, but a torn
// or stale read can only flip the *detection* of a word that a local writer
// is racing the scan on, and missing such a word is already legal: the
// writer's own release rescans the whole page against the twin and flushes
// it. Words that are stable across the scan are detected exactly. Diff
// *values* never come from these loads.
inline bool BlockXorChunks(const std::byte* a, const std::byte* b,
                           std::uint64_t x[kChunksPerBlock]) {
#if defined(__GNUC__) || defined(__clang__)
  typedef std::uint64_t VChunk __attribute__((vector_size(32), aligned(8), may_alias));
  const VChunk* va = reinterpret_cast<const VChunk*>(a);
  const VChunk* vb = reinterpret_cast<const VChunk*>(b);
  const VChunk x0 = va[0] ^ vb[0];
  const VChunk x1 = va[1] ^ vb[1];
  const VChunk any = x0 | x1;
  if ((any[0] | any[1] | any[2] | any[3]) == 0) {
    return true;
  }
  // csm-lint: allow(raw-page-copy) -- spills vector registers to a stack
  // array; never touches page memory.
  std::memcpy(x, &x0, sizeof(x0));
  std::memcpy(x + kChunksPerBlock / 2, &x1, sizeof(x1));  // csm-lint: allow(raw-page-copy) -- stack-to-stack, as above
  return false;
#else
  std::uint64_t av[kChunksPerBlock];
  std::uint64_t bv[kChunksPerBlock];
  // csm-lint: allow(raw-page-copy) -- the prefilter's documented benign racy
  // read INTO a stack buffer (see comment above); stores never use this path.
  std::memcpy(av, a, kBlockBytes);
  std::memcpy(bv, b, kBlockBytes);  // csm-lint: allow(raw-page-copy) -- stack buffer, as above
  std::uint64_t any = 0;
  for (std::size_t c = 0; c < kChunksPerBlock; ++c) {
    x[c] = av[c] ^ bv[c];
    any |= x[c];
  }
  return any == 0;
#endif
}

// One block of the scan. By-value parameters and forced inlining matter
// here: routed through a capture-by-reference closure, GCC re-loads every
// captured pointer after each atomic store (the store may alias the
// closure), roughly doubling the dense-page scan cost.
template <typename OnWord>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline void
ScanOneBlock(const std::byte* a, const std::byte* b, std::size_t block, bool chunked,
             OnWord& on_word) {
  const std::size_t word0 = block * kWordsPerBlock;
  if (chunked) {
    const std::byte* ab = a + block * kBlockBytes;
    const std::byte* bb = b + block * kBlockBytes;
    std::uint64_t x[kChunksPerBlock];
    if (BlockXorChunks(ab, bb, x)) {
      return;
    }
    for (std::size_t c = 0; c < kChunksPerBlock; ++c) {
      if (x[c] == 0) {
        continue;  // both words of this chunk compared clean
      }
      for (std::size_t h = 0; h < kWordsPerChunk; ++h) {
        // Confirm with atomic loads: the committed values, not the
        // prefilter snapshot (a racing word may compare equal again).
        const std::size_t index = word0 + c * kWordsPerChunk + h;
        const std::uint32_t aw = LoadWord32Relaxed(a, index);
        const std::uint32_t bw = LoadWord32Relaxed(b, index);
        if (aw != bw) {
          on_word(index, aw, bw);
        }
      }
    }
  } else {
    // Unaligned images (only seen from tests feeding odd buffers): fall
    // back to the word-at-a-time scan within the block.
    for (std::size_t i = 0; i < kWordsPerBlock; ++i) {
      const std::uint32_t aw = LoadWord32Relaxed(a, word0 + i);
      const std::uint32_t bw = LoadWord32Relaxed(b, word0 + i);
      if (aw != bw) {
        on_word(word0 + i, aw, bw);
      }
    }
  }
}

// Block-scanning core: calls on_word(word_index, a_word, b_word) for every
// word where page images `a` and `b` differ, in increasing index order.
// Word-exact semantics and 32-bit stores are untouched: the prefilter only
// decides which words get the atomic confirm loads, and the callback always
// receives individually-loaded words.
template <typename OnWord>
inline void ScanPairBlocks(const std::byte* a, const std::byte* b, DiffScanStats* scan,
                           OnWord&& on_word) {
  const bool chunked = Chunk64Aligned(a) && Chunk64Aligned(b);
  for (std::size_t block = 0; block < kBlocksPerPage; ++block) {
    ScanOneBlock(a, b, block, chunked, on_word);
  }
  if (scan != nullptr) {
    scan->blocks_scanned += kBlocksPerPage;
  }
}

// Tracks RLE run statistics for the direct-apply paths, which do not
// materialize a DiffBuffer.
struct RunTracker {
  std::size_t last_index = kWordsPerPage + 1;  // sentinel: not adjacent to any word
  DiffScanStats* scan;

  explicit RunTracker(DiffScanStats* s) : scan(s) {}
  void Note(std::size_t index) {
    if (scan != nullptr) {
      if (index != last_index + 1) {
        ++scan->runs;
        scan->run_bytes += kDiffRunHeaderBytes;
      }
      scan->run_bytes += kWordBytes;
    }
    last_index = index;
  }
};

}  // namespace

void SetDiffVerifyForTesting(bool enabled) {
#ifndef NDEBUG
  g_diff_verify.store(enabled, std::memory_order_relaxed);
#else
  (void)enabled;
#endif
}

std::size_t EncodeOutgoingDiff(const std::byte* working, std::byte* twin, bool flush_update,
                               DiffBuffer& out, DiffScanStats* scan) {
  out.Clear();
#ifndef NDEBUG
  // Reference pass first (read-only), so the twin is still pristine.
  std::uint64_t expect[kWordsPerPage / 64] = {};
  const bool verify = g_diff_verify.load(std::memory_order_relaxed);
  if (verify) {
    for (std::size_t i = 0; i < kWordsPerPage; ++i) {
      if (LoadWord32Relaxed(working, i) != LoadWord32Relaxed(twin, i)) {
        expect[i / 64] |= 1ull << (i % 64);
      }
    }
  }
#endif
  ScanPairBlocks(working, twin, scan,
                 [&](std::size_t index, std::uint32_t w, std::uint32_t /*t*/) {
                   out.Append(static_cast<std::uint32_t>(index), w);
                   if (flush_update) {
                     // Sync the twin from the payload snapshot, so twin and
                     // master receive bit-identical values even if a local
                     // writer races with the scan.
                     StoreWord32Relaxed(twin, index, w);
                   }
                 });
  if (scan != nullptr) {
    scan->runs += out.run_count();
    scan->run_bytes += out.WireBytes();
  }
#ifndef NDEBUG
  if (verify) {
    std::uint64_t got[kWordsPerPage / 64] = {};
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < out.run_count(); ++r) {
      const DiffRun& run = out.run(r);
      for (std::uint32_t i = 0; i < run.nwords; ++i) {
        const std::size_t index = run.offset_words + i;
        got[index / 64] |= 1ull << (index % 64);
        // Round trip: the payload snapshot is the working value (verify
        // mode implies no racing writer), and with flush-update the twin
        // was synchronized from that exact snapshot.
        CSM_DCHECK(out.payload(cursor)[i] == LoadWord32Relaxed(working, index));
        CSM_DCHECK(!flush_update ||
                   LoadWord32Relaxed(twin, index) == out.payload(cursor)[i]);
      }
      cursor += run.nwords;
    }
    for (std::size_t w = 0; w < kWordsPerPage / 64; ++w) {
      CSM_DCHECK(expect[w] == got[w]);
    }
  }
#endif
  std::atomic_thread_fence(std::memory_order_release);
  return out.words();
}

void ApplyDiffRuns(const DiffBuffer& diff, std::byte* dst) {
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < diff.run_count(); ++r) {
    const DiffRun& run = diff.run(r);
    const std::uint32_t* payload = diff.payload(cursor);
    for (std::uint32_t i = 0; i < run.nwords; ++i) {
      StoreWord32Relaxed(dst, run.offset_words + i, payload[i]);
    }
    cursor += run.nwords;
  }
  std::atomic_thread_fence(std::memory_order_release);
}

std::size_t ApplyOutgoingDiff(const std::byte* working, std::byte* twin, std::byte* master,
                              bool flush_update, DiffScanStats* scan) {
  std::size_t changed = 0;
  RunTracker runs(scan);
  ScanPairBlocks(working, twin, scan,
                 [&](std::size_t index, std::uint32_t w, std::uint32_t /*t*/) {
                   StoreWord32Relaxed(master, index, w);
                   if (flush_update) {
                     StoreWord32Relaxed(twin, index, w);
                   }
                   runs.Note(index);
                   ++changed;
                 });
  std::atomic_thread_fence(std::memory_order_release);
  return changed;
}

std::size_t ApplyIncomingDiff(const std::byte* incoming, std::byte* twin, std::byte* working,
                              DiffScanStats* scan) {
  std::size_t changed = 0;
  RunTracker runs(scan);
  ScanPairBlocks(incoming, twin, scan,
                 [&](std::size_t index, std::uint32_t in, std::uint32_t /*t*/) {
                   StoreWord32Relaxed(working, index, in);
                   StoreWord32Relaxed(twin, index, in);
                   runs.Note(index);
                   ++changed;
                 });
  std::atomic_thread_fence(std::memory_order_release);
  return changed;
}

void CopyPage(std::byte* dst, const std::byte* src) {
  for (std::size_t w = 0; w < kWordsPerPage; ++w) {
    StoreWord32Relaxed(dst, w, LoadWord32Relaxed(src, w));
  }
  std::atomic_thread_fence(std::memory_order_release);
}

}  // namespace cashmere
