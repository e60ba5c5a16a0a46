#include "src/progs/program.h"

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/log.h"

namespace sled {
namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

// How many bytes ahead CountWcChunk prefetches. A chunk counted in place in
// the file store streams from memory: 1 KiB ahead leaves the loads still
// waiting on it, 4 KiB hides most of that wait.
constexpr uintptr_t kWcPrefetchBytes = 4096;

// 64-byte steps CountWcChunk takes between folds of its byte lanes: a step
// adds at most 4 to a lane, so 63 steps leave every lane below 256.
constexpr size_t kWcFoldSteps = 63;

static_assert(std::endian::native == std::endian::little, "FITS rows are byte-swapped");

// The one row-decode loop: `U` is the element's unsigned integer of the same
// width, `to_double` maps its host-order bits to the value.
template <typename U, typename ToDouble>
void DecodeBeRow(const char* in, std::span<double> out, ToDouble to_double) {
  for (size_t i = 0; i < out.size(); ++i) {
    U bits;
    std::memcpy(&bits, in + i * sizeof(U), sizeof(U));
    out[i] = to_double(ByteSwap(bits));
  }
}

double FloatBitsToDouble(uint32_t bits) { return static_cast<double>(std::bit_cast<float>(bits)); }

// BITPIX -32, four pixels per 16-byte load. cvtps2pd widens each lane exactly
// as cvtss2sd (the static_cast above) does, and quiets a signalling NaN the
// same way. The last out.size() % 4 pixels take DecodeBeRow.
void DecodeFloatRow(const char* in, std::span<double> out) {
  size_t i = 0;
  for (; i + 4 <= out.size(); i += 4) {
    const __m128 f = _mm_castsi128_ps(
        ByteSwap32x4(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4 * i))));
    _mm_storeu_pd(out.data() + i, _mm_cvtps_pd(f));
    _mm_storeu_pd(out.data() + i + 2, _mm_cvtps_pd(_mm_movehl_ps(f, f)));
  }
  DecodeBeRow<uint32_t>(in + 4 * i, out.subspan(i), FloatBitsToDouble);
}

// HistogramMinMax's reference: one in-order std::min/std::max chain.
void MinMaxInOrder(std::span<const double> values, double* lo, double* hi) {
  double low = *lo;
  double high = *hi;
  for (const double v : values) {
    low = std::min(low, v);
    high = std::max(high, v);
  }
  *lo = low;
  *hi = high;
}

// The low and the high lane of `v`.
double LowLane(__m128d v) { return _mm_cvtsd_f64(v); }
double HighLane(__m128d v) { return _mm_cvtsd_f64(_mm_unpackhi_pd(v, v)); }

// static_cast<int> is defined only for quotients in (INT_MIN - 1, INT_MAX + 1).
constexpr double kAboveInt = 2147483648.0;
constexpr double kBelowInt = -2147483649.0;

// HistogramBin's bin of one value.
int BinOf(double v, double lo, double width, int last) {
  const double q = (v - lo) / width;
  // NaN fails both compares. Bin 0 matches x86-64's unchecked conversion:
  // cvttsd2si gives INT_MIN, which the clamp sends to 0.
  return q > kBelowInt && q < kAboveInt ? std::clamp(static_cast<int>(q), 0, last) : 0;
}

// Elements the kHistogram program decodes per on-stack block (16 KiB). At
// 512, HistogramBin's per-call zeroing and merging of its partial counts
// cost it about a fifth more per value than on longer calls.
constexpr int64_t kHistogramBlock = 2048;

int64_t ReadI64Le(std::string_view data, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[at + static_cast<size_t>(i)]);
  }
  return static_cast<int64_t>(v);
}

// Prefetches kWcPrefetchBytes past `p`. The address is formed as an integer:
// past the end of the chunk, pointer arithmetic would be out of bounds. A
// prefetch never faults.
inline void PrefetchWcAhead(const char* p) {
  _mm_prefetch(reinterpret_cast<const char*>(reinterpret_cast<uintptr_t>(p) + kWcPrefetchBytes),
               _MM_HINT_T0);
}

// One bit per byte, in load order.
struct WcMasks {
  uint64_t space = 0;    // wc's whitespace class
  uint64_t newline = 0;  // '\n'
};

// The masks of the 32 bytes at `p`, in the low 32 bits.
[[gnu::target("avx2,popcnt")]] inline WcMasks WcMasks32(const char* p) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  // As in the SSE2 body: v + 0x77 maps the bytes '\t'..'\r' (9-13), and no
  // others, below -123 as signed bytes.
  const __m256i is_space = _mm256_or_si256(
      _mm256_cmpgt_epi8(_mm256_set1_epi8(-123), _mm256_add_epi8(v, _mm256_set1_epi8(0x77))),
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8(' ')));
  const __m256i is_newline = _mm256_cmpeq_epi8(v, _mm256_set1_epi8('\n'));
  return {.space = static_cast<uint32_t>(_mm256_movemask_epi8(is_space)),
          .newline = static_cast<uint32_t>(_mm256_movemask_epi8(is_newline))};
}

// Adds the newlines and word starts of the 64 bytes at `p` to `counts`.
// `*space` holds the space mask of the 64 bytes before them, of which only
// bit 63, their last byte, is read, and receives theirs.
[[gnu::target("avx2,popcnt")]] inline void CountWc64(const char* p, uint64_t* space,
                                                     WcCounts* counts) {
  const WcMasks lo = WcMasks32(p);
  const WcMasks hi = WcMasks32(p + 32);
  const uint64_t is_space = lo.space | hi.space << 32;
  const uint64_t space_before = is_space << 1 | *space >> 63;
  counts->words += _mm_popcnt_u64(~is_space & space_before);
  counts->lines += _mm_popcnt_u64(lo.newline | hi.newline << 32);
  *space = is_space;
}

}  // namespace

int64_t ProgElementSize(int bitpix) { return (bitpix < 0 ? -bitpix : bitpix) / 8; }

void FitsDecodeRow(const char* in, int bitpix, std::span<double> out) {
  switch (bitpix) {
    case 8:
      return DecodeBeRow<uint8_t>(in, out, [](uint8_t b) { return static_cast<double>(b); });
    case 16:
      return DecodeBeRow<uint16_t>(
          in, out, [](uint16_t b) { return static_cast<double>(static_cast<int16_t>(b)); });
    case 32:
      return DecodeBeRow<uint32_t>(
          in, out, [](uint32_t b) { return static_cast<double>(static_cast<int32_t>(b)); });
    case -32:
      return DecodeFloatRow(in, out);
    case -64:
      return DecodeBeRow<uint64_t>(in, out, [](uint64_t b) { return std::bit_cast<double>(b); });
    default:
      SLED_CHECK(false, "unsupported BITPIX %d", bitpix);
  }
}

void HistogramMinMax(std::span<const double> values, double* lo, double* hi) {
  // Eight lanes, each folded in order with _mm_min_pd(v, acc), which is
  // (v < acc) ? v : acc, i.e. std::min(acc, v), so NaN is skipped in every
  // lane as in the in-order loop; likewise _mm_max_pd(v, acc). Equal non-zero
  // doubles have equal bits, so splitting the values among lanes can change
  // only which of tied zeros survives: a zero result takes the in-order loop.
  constexpr size_t kLanes = 8;
  if (values.size() < kLanes) {
    return MinMaxInOrder(values, lo, hi);
  }
  const double* p = values.data();
  const size_t vector_end = values.size() / kLanes * kLanes;
  __m128d min[4];
  __m128d max[4];
  for (int k = 0; k < 4; ++k) {
    min[k] = _mm_set1_pd(std::numeric_limits<double>::infinity());
    max[k] = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  }
  for (size_t i = 0; i < vector_end; i += kLanes) {
    for (int k = 0; k < 4; ++k) {
      const __m128d v = _mm_loadu_pd(p + i + 2 * k);
      min[k] = _mm_min_pd(v, min[k]);
      max[k] = _mm_max_pd(v, max[k]);
    }
  }
  // The lanes hold no NaN; *lo and *hi go first, so a NaN there stays.
  double low = *lo;
  double high = *hi;
  for (int k = 0; k < 4; ++k) {
    low = std::min({low, LowLane(min[k]), HighLane(min[k])});
    high = std::max({high, LowLane(max[k]), HighLane(max[k])});
  }
  for (const double v : values.subspan(vector_end)) {
    low = std::min(low, v);
    high = std::max(high, v);
  }
  if (low == 0.0 || high == 0.0) {
    return MinMaxInOrder(values, lo, hi);
  }
  *lo = low;
  *hi = high;
}

void HistogramBin(std::span<const double> values, double lo, double width,
                  std::span<int64_t> bins) {
  const int last = static_cast<int>(bins.size()) - 1;
  if (bins.size() > static_cast<size_t>(kProgMaxBins)) {
    for (const double v : values) {
      ++bins[static_cast<size_t>(BinOf(v, lo, width, last))];
    }
    return;
  }
  // Value i counts in part[bin][i % 4]: neighbours in one bin then add to
  // different counters and do not wait on each other's store. Only the first
  // bins.size() rows are used, and only they are zeroed.
  std::array<std::array<int64_t, 4>, kProgMaxBins> part;
  std::fill_n(part.begin(), bins.size(), std::array<int64_t, 4>{});
  const __m128d low = _mm_set1_pd(lo);
  const __m128d wide = _mm_set1_pd(width);
  const __m128d top = _mm_set1_pd(last);
  const __m128d above = _mm_set1_pd(kAboveInt);
  // The bins of v[0] and v[1], in the low and the high half. divpd gives each
  // lane divsd's quotient. Then BinOf in the double domain: max(q, 0) sends
  // NaN and every q below 0 to 0, so the truncation need not clamp below;
  // min(q, last) truncates to min(trunc(q), last); a q at or above kAboveInt
  // is masked to +0. What cvttpd2dq truncates is therefore in [0, last].
  const auto two_bins = [&](const double* v) {
    const __m128d q = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(v), low), wide);
    const __m128d clamped = _mm_and_pd(_mm_min_pd(_mm_max_pd(q, _mm_setzero_pd()), top),
                                       _mm_cmplt_pd(q, above));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_cvttpd_epi32(clamped)));
  };
  const double* v = values.data();
  size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    const uint64_t ab = two_bins(v + i);
    const uint64_t cd = two_bins(v + i + 2);
    ++part[static_cast<uint32_t>(ab)][0];
    ++part[ab >> 32][1];
    ++part[static_cast<uint32_t>(cd)][2];
    ++part[cd >> 32][3];
  }
  for (; i < values.size(); ++i) {
    ++part[static_cast<size_t>(BinOf(v[i], lo, width, last))][0];
  }
  for (size_t b = 0; b < bins.size(); ++b) {
    bins[b] += part[b][0] + part[b][1] + part[b][2] + part[b][3];
  }
}

bool HostHasAvx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
  }();
  return has;
}

WcCounts CountWcChunk(std::string_view data, bool in_word) {
  static const auto body = HostHasAvx2() ? CountWcChunkAvx2 : CountWcChunkSse2;
  return body(data, in_word);
}

WcCounts CountWcChunkSse2(std::string_view data, bool in_word) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i bias = _mm_set1_epi8(0x77);
  const __m128i below = _mm_set1_epi8(-123);
  const __m128i space = _mm_set1_epi8(' ');
  const __m128i newline = _mm_set1_epi8('\n');
  // The space mask of the vector before, all-ones in a space byte: only its
  // last byte is read, and before the chunk that byte is the carry.
  __m128i prev_space = in_word ? zero : _mm_set1_epi8(-1);
  __m128i line_lanes = zero;
  __m128i start_lanes = zero;
  const auto count = [&](__m128i v) {
    // v + 0x77 maps the bytes '\t'..'\r' (9-13), and no others, below -123
    // as signed bytes.
    const __m128i is_space = _mm_or_si128(_mm_cmplt_epi8(_mm_add_epi8(v, bias), below),
                                          _mm_cmpeq_epi8(v, space));
    const __m128i space_before =
        _mm_or_si128(_mm_slli_si128(is_space, 1), _mm_srli_si128(prev_space, 15));
    // A mask byte is -1, so subtracting it counts one in its lane.
    start_lanes = _mm_sub_epi8(start_lanes, _mm_andnot_si128(is_space, space_before));
    line_lanes = _mm_sub_epi8(line_lanes, _mm_cmpeq_epi8(v, newline));
    prev_space = is_space;
  };
  __m128i line_sums = zero;
  __m128i start_sums = zero;
  const auto fold = [&] {
    line_sums = _mm_add_epi64(line_sums, _mm_sad_epu8(line_lanes, zero));
    start_sums = _mm_add_epi64(start_sums, _mm_sad_epu8(start_lanes, zero));
    line_lanes = zero;
    start_lanes = zero;
  };
  const char* p = data.data();
  const size_t size = data.size();
  size_t at = 0;
  while (size - at >= 64) {
    const size_t end = at + std::min((size - at) / 64, kWcFoldSteps) * 64;
    for (; at < end; at += 64) {
      PrefetchWcAhead(p + at);
      for (size_t k = 0; k < 64; k += 16) {
        count(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + at + k)));
      }
    }
    fold();
  }
  for (; size - at >= 16; at += 16) {
    count(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + at)));
  }
  if (at < size) {
    // The last size % 16 bytes, padded with spaces, which add neither a line
    // nor a word start.
    std::array<char, 16> stage;
    stage.fill(' ');
    std::memcpy(stage.data(), p + at, size - at);
    count(_mm_loadu_si128(reinterpret_cast<const __m128i*>(stage.data())));
  }
  fold();
  const auto total = [](__m128i sums) {
    return _mm_cvtsi128_si64(sums) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(sums, sums));
  };
  return WcCounts{.lines = total(line_sums), .words = total(start_sums)};
}

[[gnu::target("avx2,popcnt")]] WcCounts CountWcChunkAvx2(std::string_view data, bool in_word) {
  // Bit 63 of the mask before the chunk: set when the byte before was a space.
  uint64_t space = in_word ? 0 : uint64_t{1} << 63;
  WcCounts counts;
  const char* p = data.data();
  const size_t size = data.size();
  size_t at = 0;
  for (; size - at >= 64; at += 64) {
    PrefetchWcAhead(p + at);
    CountWc64(p + at, &space, &counts);
  }
  if (at < size) {
    // The last size % 64 bytes, padded with spaces, which add neither a line
    // nor a word start.
    std::array<char, 64> stage;
    stage.fill(' ');
    std::memcpy(stage.data(), p + at, size - at);
    CountWc64(stage.data(), &space, &counts);
  }
  return counts;
}

CompletionProgram::CompletionProgram(const ProgSpec& spec) : spec_(spec) {}

Result<CompletionProgram> CompletionProgram::Create(const ProgSpec& spec) {
  if (spec.pattern.size() > static_cast<size_t>(kProgMaxPattern)) {
    return Err::kInval;
  }
  if (spec.chunk_bytes <= 0 || spec.limits.max_step_bytes <= 0 || spec.limits.max_resubmits < 0) {
    return Err::kInval;
  }
  if (spec.step_cost_ns_per_byte < 0.0) {
    return Err::kInval;
  }
  switch (spec.kind) {
    case ProgKind::kFindFirst:
      if (spec.pattern.empty()) {
        return Err::kInval;
      }
      break;
    case ProgKind::kCount:
      // CountChunk carries in_word_ from the chunk consumed before, which is
      // the byte before the chunk only in file order.
      if (spec.order_by_sleds) {
        return Err::kInval;
      }
      break;
    case ProgKind::kChainWalk:
      if (spec.block_bytes < 16 || spec.start_offset < 0) {
        return Err::kInval;
      }
      break;
    case ProgKind::kHistogram:
      if (spec.num_bins <= 0 || spec.num_bins > kProgMaxBins || spec.element_count < 0 ||
          spec.data_offset < 0) {
        return Err::kInval;
      }
      if (ProgElementSize(spec.bitpix) == 0 ||
          (spec.bitpix != 8 && spec.bitpix != 16 && spec.bitpix != 32 && spec.bitpix != -32 &&
           spec.bitpix != -64)) {
        return Err::kInval;
      }
      // Start() computes the data unit's end; it must fit in int64.
      if (int64_t end = 0;
          __builtin_mul_overflow(spec.element_count, ProgElementSize(spec.bitpix), &end) ||
          __builtin_add_overflow(end, spec.data_offset, &end)) {
        return Err::kInval;
      }
      break;
  }
  CompletionProgram prog(spec);
  std::memcpy(prog.pattern_.data(), spec.pattern.data(), spec.pattern.size());
  prog.pattern_len_ = static_cast<int32_t>(spec.pattern.size());
  prog.elem_size_ = ProgElementSize(spec.bitpix);
  return prog;
}

CompletionProgram::Action CompletionProgram::Abort(ProgStatus status) {
  result_.status = status;
  return Action{.kind = Action::Kind::kAbort};
}

// Every kSeek is one program-driven chained read — the hop that would have
// been a Lseek+Read round trip through the app. Budgeted.
CompletionProgram::Action CompletionProgram::SeekNext(int64_t offset, int64_t length) {
  if (offset < 0 || length <= 0 || offset + length > file_size_) {
    return Abort(ProgStatus::kFaulted);
  }
  if (result_.resubmits >= spec_.limits.max_resubmits) {
    return Abort(ProgStatus::kAbortedResubmits);
  }
  ++result_.resubmits;
  return Action{.kind = Action::Kind::kSeek, .offset = offset, .length = length};
}

CompletionProgram::Action CompletionProgram::Start(int64_t file_size) {
  file_size_ = file_size;
  switch (spec_.kind) {
    case ProgKind::kFindFirst:
    case ProgKind::kCount:
      return Action{.kind = Action::Kind::kNext};
    case ProgKind::kChainWalk: {
      if (spec_.start_offset + spec_.block_bytes > file_size_) {
        return Abort(ProgStatus::kFaulted);
      }
      // The head block is the installed first read, not a chained one: a
      // resubmit count of N means N completions fed the *next* hop.
      return Action{.kind = Action::Kind::kSeek,
                    .offset = spec_.start_offset,
                    .length = spec_.block_bytes};
    }
    case ProgKind::kHistogram: {
      cursor_ = spec_.data_offset;
      elements_done_ = 0;
      phase_ = 0;
      lo_ = std::numeric_limits<double>::infinity();
      hi_ = -std::numeric_limits<double>::infinity();
      if (spec_.element_count == 0) {
        result_.min_value = 0.0;
        result_.max_value = 0.0;
        return Action{.kind = Action::Kind::kDone};
      }
      if (spec_.data_offset + spec_.element_count * elem_size_ > file_size_) {
        return Abort(ProgStatus::kFaulted);
      }
      return HistogramAdvance();
    }
  }
  return Abort(ProgStatus::kFaulted);
}

CompletionProgram::Action CompletionProgram::OnComplete(int64_t offset, std::string_view data) {
  ++result_.invocations;
  result_.bytes_examined += static_cast<int64_t>(data.size());
  if (result_.bytes_examined > spec_.limits.max_step_bytes) {
    return Abort(ProgStatus::kAbortedSteps);
  }
  switch (spec_.kind) {
    case ProgKind::kFindFirst:
      return FindFirstChunk(offset, data);
    case ProgKind::kCount:
      return CountChunk(data);
    case ProgKind::kChainWalk:
      return ChainWalkBlock(offset, data);
    case ProgKind::kHistogram:
      return HistogramChunk(data);
  }
  return Abort(ProgStatus::kFaulted);
}

CompletionProgram::Action CompletionProgram::OnPlanEnd() {
  return Action{.kind = Action::Kind::kDone};
}

CompletionProgram::Action CompletionProgram::FindFirstChunk(int64_t offset,
                                                            std::string_view data) {
  const std::string_view needle(pattern_.data(), static_cast<size_t>(pattern_len_));
  // Chunks are overlapped by pattern_len-1 bytes by the planner, so a match
  // straddling a nominal chunk boundary is seen by the chunk it starts in.
  const size_t pos = data.find(needle);
  if (pos == std::string_view::npos) {
    return Action{.kind = Action::Kind::kNext};
  }
  result_.found = true;
  result_.match_offset = offset + static_cast<int64_t>(pos);
  return Action{.kind = Action::Kind::kDone, .cancel_pending = true};
}

CompletionProgram::Action CompletionProgram::CountChunk(std::string_view data) {
  // Chunks arrive in file order (Create refuses order_by_sleds for kCount),
  // so a single in_word_ carry reproduces wc's seam merge exactly.
  const WcCounts counts = CountWcChunk(data, in_word_);
  result_.lines += counts.lines;
  result_.words += counts.words;
  if (!data.empty()) {
    in_word_ = !IsWcSpace(data.back());
  }
  result_.bytes += static_cast<int64_t>(data.size());
  return Action{.kind = Action::Kind::kNext};
}

CompletionProgram::Action CompletionProgram::ChainWalkBlock(int64_t offset,
                                                            std::string_view data) {
  // Block layout (workload chain_gen): [0,8) next-block byte offset (int64
  // LE, -1 = end of chain); [8,16) name length; [16,16+len) name bytes.
  if (data.size() < 16) {
    return Abort(ProgStatus::kFaulted);
  }
  const int64_t next = ReadI64Le(data, 0);
  const int64_t name_len = ReadI64Le(data, 8);
  if (name_len < 0 || 16 + name_len > static_cast<int64_t>(data.size())) {
    return Abort(ProgStatus::kFaulted);
  }
  const std::string_view name = data.substr(16, static_cast<size_t>(name_len));
  ++result_.blocks_visited;
  for (char c : name) {
    result_.chain_hash = (result_.chain_hash ^ static_cast<uint8_t>(c)) * kFnvPrime;
  }
  const std::string_view filter(pattern_.data(), static_cast<size_t>(pattern_len_));
  if (!filter.empty() && name.find(filter) != std::string_view::npos) {
    if (result_.names_matched < kProgMaxRecorded) {
      result_.matched_offsets[static_cast<size_t>(result_.names_matched)] = offset;
    }
    ++result_.names_matched;
    result_.matched_count = static_cast<int32_t>(
        std::min<int64_t>(result_.names_matched, kProgMaxRecorded));
  }
  if (next < 0) {
    return Action{.kind = Action::Kind::kDone};
  }
  return SeekNext(next, spec_.block_bytes);
}

CompletionProgram::Action CompletionProgram::HistogramAdvance() {
  const int64_t total = spec_.element_count;
  if (elements_done_ >= total) {
    if (phase_ == 0) {
      // Pass flip *inside the completion path*: the last min/max completion
      // directly submits the first binning read (fimhisto's pass chaining).
      if (!std::isfinite(lo_)) {
        lo_ = 0.0;
        hi_ = 0.0;
      }
      result_.min_value = lo_;
      result_.max_value = hi_;
      width_ = hi_ > lo_ ? (hi_ - lo_) / spec_.num_bins : 1.0;
      phase_ = 1;
      elements_done_ = 0;
      cursor_ = spec_.data_offset;
    } else {
      return Action{.kind = Action::Kind::kDone};
    }
  }
  // Whole elements per chunk: round the chunk down to an element multiple so
  // no pixel ever straddles two completions.
  int64_t elems = std::max<int64_t>(spec_.chunk_bytes / elem_size_, 1);
  elems = std::min(elems, total - elements_done_);
  return SeekNext(cursor_, elems * elem_size_);
}

CompletionProgram::Action CompletionProgram::HistogramChunk(std::string_view data) {
  if (data.size() % static_cast<size_t>(elem_size_) != 0) {
    return Abort(ProgStatus::kFaulted);
  }
  const int64_t elems = static_cast<int64_t>(data.size()) / elem_size_;
  // A fixed on-stack block keeps the program allocation-free.
  std::array<double, kHistogramBlock> block;
  const std::span<int64_t> bins(result_.bins.data(), static_cast<size_t>(spec_.num_bins));
  for (int64_t at = 0; at < elems; at += kHistogramBlock) {
    const std::span<double> values(block.data(),
                                   static_cast<size_t>(std::min(kHistogramBlock, elems - at)));
    FitsDecodeRow(data.data() + at * elem_size_, spec_.bitpix, values);
    if (phase_ == 0) {
      HistogramMinMax(values, &lo_, &hi_);
    } else {
      HistogramBin(values, lo_, width_, bins);
    }
  }
  elements_done_ += elems;
  cursor_ += elems * elem_size_;
  return HistogramAdvance();
}

}  // namespace sled
