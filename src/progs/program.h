// Completion-path storage programs (BPF-for-storage style, PAPERS.md).
//
// A completion program is a small, sandboxed state machine that an
// application installs on an open file (SimKernel::InstallProgram) and that
// the kernel runs against I/O completions (SimKernel::RunProgram) instead of
// bouncing every chunk back across the app/kernel boundary. Programs can
//
//   * prune   — kFindFirst stops the scan at the first pattern hit and the
//               kernel cancels the readahead already queued past it;
//   * chain   — kChainWalk and kHistogram return the *next* read from inside
//               the completion path (pointer-chase hops, pass N -> pass N+1),
//               so a dependent I/O chain pays one syscall total instead of
//               two per hop;
//   * reduce  — kCount and kHistogram aggregate in the kernel and return
//               only counters.
//
// Sandbox contract (enforced here, not trusted from the app):
//   - no allocation after Create(): all state is fixed-size members, the
//     pattern is copied into a bounded buffer at install time;
//   - explicit resource bounds: max_step_bytes caps bytes examined and
//     max_resubmits caps program-driven chained reads; exceeding either
//     aborts the *program* (status != kOk) while the kernel and the file
//     stay fully consistent;
//   - programs only ever see bytes of the file they are installed on and
//     only ever request reads inside it (out-of-range chain pointers fault
//     the program, not the kernel).
//
// This layer is pure logic: it never touches the clock, the cache, or a
// device. The kernel owns scheduling, pricing (see CpuCosts.prog_*), fault
// handling, and replica routing for every byte a program consumes.
#ifndef SLEDS_SRC_PROGS_PROGRAM_H_
#define SLEDS_SRC_PROGS_PROGRAM_H_

#include <emmintrin.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/sleds/sled.h"

namespace sled {

inline constexpr int kProgMaxPattern = 128;    // install-time copy bound
inline constexpr int kProgMaxBins = 256;       // histogram reduction width
inline constexpr int kProgMaxRecorded = 64;    // matched-offset ring bound

enum class ProgKind : uint8_t {
  kFindFirst,  // prune: stop at the first pattern occurrence
  kCount,      // reduce: line/word/byte counters (wc semantics)
  kChainWalk,  // chain: pointer-chase over fixed-size linked blocks
  kHistogram,  // chain+reduce: min/max pass, then a binning pass
};

enum class ProgStatus : uint8_t {
  kOk,                // ran to completion
  kAbortedSteps,      // examined more than limits.max_step_bytes
  kAbortedResubmits,  // chained more reads than limits.max_resubmits
  kFaulted,           // malformed data (bad chain pointer / short block)
};

struct ProgLimits {
  int64_t max_step_bytes = 256 * kMiB;  // bytes a program may examine
  int32_t max_resubmits = 1 << 20;      // program-driven chained reads
};

struct ProgSpec {
  ProgKind kind = ProgKind::kCount;

  // kFindFirst needle / kChainWalk name filter (empty = match nothing).
  // Copied into a fixed buffer at install; longer than kProgMaxPattern is
  // rejected by InstallProgram.
  std::string pattern;

  // Linear-scan chunk size for the plan-driven kinds and the histogram
  // passes. The kernel clamps each chunk to the file.
  int64_t chunk_bytes = kDefaultProgChunk;

  // kFindFirst only: consume chunks lowest-latency-first using the picker's
  // §4.2 ordering (SortByPickOrder) instead of file order, so a pruning
  // program drains cheap sections before expensive ones. kCount refuses it
  // (kInval): its word-seam carry is the byte before each chunk only when
  // chunks arrive in file order.
  bool order_by_sleds = false;
  RankBy rank_by = RankBy::kMean;

  // kChainWalk: offset of the head block and the fixed block size.
  int64_t start_offset = 0;
  int64_t block_bytes = kPageSize;

  // kHistogram: FITS-style data unit geometry. bitpix in {8,16,32,-32,-64}.
  int num_bins = 0;
  int bitpix = -32;
  int64_t data_offset = 0;
  int64_t element_count = 0;

  // Pricing: the app-declared compute cost of the program body, charged by
  // the kernel per byte examined (same contract as AppCpuCosts per-byte
  // charges, so a program variant and its userspace oracle pay the same
  // compute and differ only in crossings and copies).
  double step_cost_ns_per_byte = 0.0;

  ProgLimits limits;

  static constexpr int64_t kDefaultProgChunk = 64 * kKiB;
};

struct ProgResult {
  ProgStatus status = ProgStatus::kOk;

  // kFindFirst
  bool found = false;
  int64_t match_offset = -1;

  // kCount
  int64_t lines = 0;
  int64_t words = 0;
  int64_t bytes = 0;

  // kChainWalk
  int64_t blocks_visited = 0;
  int64_t names_matched = 0;
  uint64_t chain_hash = 1469598103934665603ULL;  // FNV-1a basis, order-sensitive
  std::array<int64_t, kProgMaxRecorded> matched_offsets{};
  int32_t matched_count = 0;  // total recorded (capped at kProgMaxRecorded)

  // kHistogram
  double min_value = 0.0;
  double max_value = 0.0;
  std::array<int64_t, kProgMaxBins> bins{};

  // Execution accounting (all kinds).
  int64_t bytes_examined = 0;  // "steps" against limits.max_step_bytes
  int32_t resubmits = 0;       // program-driven chained reads issued
  int32_t invocations = 0;     // completion-path invocations
};

// The sandboxed machine itself. Create() validates the spec and copies the
// pattern; afterwards execution is allocation-free. The kernel drives it:
//
//   plan-driven (kFindFirst, kCount): the kernel builds the chunk plan
//     (sequential or SLED-ordered) and feeds each chunk to OnComplete();
//     OnPlanEnd() finalizes when the plan is exhausted without kDone.
//   self-driven (kChainWalk, kHistogram): Start() names the first read and
//     every OnComplete() may return kSeek naming the next one — the chained
//     resubmit that replaces an app round trip.
class CompletionProgram {
 public:
  struct Action {
    enum class Kind : uint8_t {
      kNext,  // plan-driven: feed me the next planned chunk
      kSeek,  // self-driven: read [offset, offset+length) next
      kDone,  // finished; result is final
      kAbort, // resource bound hit or data fault; result holds the status
    };
    Kind kind = Kind::kNext;
    int64_t offset = 0;
    int64_t length = 0;
    // kDone only: queued I/O for this file past the consumed point is now
    // useless (early exit) — the kernel cancels it.
    bool cancel_pending = false;
  };

  static Result<CompletionProgram> Create(const ProgSpec& spec);

  // kChainWalk / kHistogram issue their own reads.
  bool self_driven() const {
    return spec_.kind == ProgKind::kChainWalk || spec_.kind == ProgKind::kHistogram;
  }

  // First read of a self-driven program (kSeek), or kNext for plan-driven
  // kinds. `file_size` bounds every subsequent seek.
  Action Start(int64_t file_size);

  // One completed chunk of file bytes at `offset`. Enforces the step budget
  // before examining data and the resubmit budget before chaining.
  Action OnComplete(int64_t offset, std::string_view data);

  // Plan-driven kinds: the plan ran dry without an early exit.
  Action OnPlanEnd();

  const ProgSpec& spec() const { return spec_; }
  const ProgResult& result() const { return result_; }

 private:
  explicit CompletionProgram(const ProgSpec& spec);

  Action Abort(ProgStatus status);
  Action SeekNext(int64_t offset, int64_t length);

  Action FindFirstChunk(int64_t offset, std::string_view data);
  Action CountChunk(std::string_view data);
  Action ChainWalkBlock(int64_t offset, std::string_view data);
  Action HistogramChunk(std::string_view data);
  Action HistogramAdvance();  // next seek of the current pass, or pass flip

  ProgSpec spec_;
  ProgResult result_;

  // Fixed-size sandbox state — no allocation after Create().
  std::array<char, kProgMaxPattern> pattern_{};
  int32_t pattern_len_ = 0;
  int64_t file_size_ = 0;

  // kCount: word-seam carry between sequential chunks.
  bool in_word_ = false;

  // kChainWalk
  int64_t next_block_ = -1;

  // kHistogram
  int phase_ = 0;              // 0 = min/max, 1 = bin
  int64_t elem_size_ = 4;
  int64_t elements_done_ = 0;  // within the current pass
  int64_t cursor_ = 0;         // next byte offset of the current pass
  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 1.0;
};

int64_t ProgElementSize(int bitpix);

// Reverses the byte order of an unsigned integer: FITS data is big-endian,
// the host little-endian.
template <typename U>
constexpr U ByteSwap(U v) {
  if constexpr (sizeof(U) == 1) {
    return v;
  } else if constexpr (sizeof(U) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(U) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

// Reverses the byte order of each 32-bit lane of `v`: the bytes of each 16-bit
// word swap, then the two words of each lane. SSE2 only, since SSSE3's pshufb
// is not in the x86-64 baseline.
inline __m128i ByteSwap32x4(__m128i v) {
  v = _mm_or_si128(_mm_slli_epi16(v, 8), _mm_srli_epi16(v, 8));
  v = _mm_shufflelo_epi16(v, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_shufflehi_epi16(v, _MM_SHUFFLE(2, 3, 0, 1));
}

// Decodes out.size() big-endian FITS elements of `bitpix` (8, 16, 32, -32 or
// -64) from `in`, which holds out.size() * ProgElementSize(bitpix) bytes at
// any alignment. The one row decode behind the FITS apps' reads and the
// kHistogram program; it lives here because progs sits below the kernel and
// src/fits above it. The BITPIX case is chosen once per row, and every value
// is bit-identical to FitsDecodePixel's, the per-pixel reference. BITPIX -32
// decodes four pixels per SSE2 step.
void FitsDecodeRow(const char* in, int bitpix, std::span<double> out);

// The histogram's two reductions, each the one loop behind both fimhisto's
// passes and the kHistogram program. Both keep their running state in
// locals and may be fed a pass in any split.
//
// HistogramMinMax folds `values` into [*lo, *hi] as if in order with
// std::min and std::max: NaN values are skipped, and of equal values (+0 and
// -0) the first one seen stays. It folds eight SSE2 lanes; calls shorter than
// that, and calls whose minimum or maximum is a zero, run the in-order loop.
void HistogramMinMax(std::span<const double> values, double* lo, double* hi);

// HistogramBin adds each value to bin (v - lo) / width, truncated toward
// zero and clamped to [0, bins.size() - 1]. A quotient that is NaN (a blank
// pixel, or Inf - Inf) or does not fit in int goes to bin 0. `bins` must not
// be empty; it may be wider than kProgMaxBins, and then takes a scalar loop.
// Up to kProgMaxBins, it bins four values per step, two per SSE2 register.
void HistogramBin(std::span<const double> values, double lo, double width,
                  std::span<int64_t> bins);

// wc's whitespace class: ' ', '\t', '\n', '\v', '\f', '\r'. Bytes >= 0x80 are
// never space, whether or not `char` is signed.
constexpr bool IsWcSpace(char c) {
  const auto b = static_cast<uint8_t>(c);
  return b == ' ' || static_cast<uint8_t>(b - '\t') < 5;
}

struct WcCounts {
  int64_t lines = 0;  // '\n' bytes
  int64_t words = 0;  // word starts
};

// wc's count over one chunk: the one count behind both WcApp and the kCount
// program. A word start is a non-space byte whose previous byte is a space;
// the chunk's first byte is one only when `in_word` is false, i.e. when the
// byte before the chunk was a space or there was none. It runs
// CountWcChunkAvx2 where HostHasAvx2(), else CountWcChunkSse2, chosen once
// per process.
WcCounts CountWcChunk(std::string_view data, bool in_word);

// Whether this host runs AVX2 and POPCNT code, read once from CPUID.
bool HostHasAvx2();

// The two bodies of CountWcChunk, which give the same counts. Both prefetch
// a fixed distance ahead, and each sends the chunk's last bytes through a
// stage padded with spaces, so no load reads past the chunk.
//
// The SSE2 body is the x86-64 baseline and the tests' reference: per 16-byte
// vector a space mask, whose shift by one byte, carried across vectors, marks
// the word starts; newlines and starts count in byte lanes that are folded
// into 64-bit sums before any lane can wrap.
WcCounts CountWcChunkSse2(std::string_view data, bool in_word);

// The AVX2 body, to be called only where HostHasAvx2(): per 64 bytes, a
// 64-bit space mask and newline mask; word starts are the popcount of the
// non-space bits whose predecessor bit (bit 63 of the mask before, for bit 0)
// is a space, and newlines the popcount of the newline mask.
WcCounts CountWcChunkAvx2(std::string_view data, bool in_word);

}  // namespace sled

#endif  // SLEDS_SRC_PROGS_PROGRAM_H_
