#include "src/fits/fits.h"

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/log.h"
#include "src/progs/program.h"

namespace sled {
namespace {

std::string Card(const std::string& keyword, const std::string& value,
                 const std::string& comment = "") {
  char buf[kFitsCardLen + 1];
  // "KEYWORD =                value / comment", padded to 80 columns.
  std::snprintf(buf, sizeof(buf), "%-8.8s= %20s%s%-.47s", keyword.c_str(), value.c_str(),
                comment.empty() ? "" : " / ", comment.c_str());
  std::string card(buf);
  card.resize(kFitsCardLen, ' ');
  return card;
}

std::string EndCard() {
  std::string card = "END";
  card.resize(kFitsCardLen, ' ');
  return card;
}

// Store an unsigned big-endian integer of `n` bytes.
void PutBe(uint64_t v, int n, char* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<char>((v >> (8 * (n - 1 - i))) & 0xFF);
  }
}

uint64_t GetBe(const char* in, int n) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v = (v << 8) | static_cast<uint8_t>(in[i]);
  }
  return v;
}

// The one row-encode loop: `to_bits` maps a value to the host-order bits of
// the element's unsigned integer `U`.
template <typename U, typename ToBits>
void EncodeBeRow(std::span<const double> values, char* out, ToBits to_bits) {
  for (size_t i = 0; i < values.size(); ++i) {
    const U bits = ByteSwap(static_cast<U>(to_bits(values[i])));
    std::memcpy(out + i * sizeof(U), &bits, sizeof(U));
  }
}

uint32_t DoubleToFloatBits(double v) { return std::bit_cast<uint32_t>(static_cast<float>(v)); }

// BITPIX -32, four pixels per 16-byte store. cvtpd2ps narrows each lane as
// cvtsd2ss (the static_cast above) does: the same rounding under the default
// MXCSR and the same quieted NaNs. The last values.size() % 4 pixels take
// EncodeBeRow.
void EncodeFloatRow(std::span<const double> values, char* out) {
  size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    const __m128 f = _mm_movelh_ps(_mm_cvtpd_ps(_mm_loadu_pd(values.data() + i)),
                                   _mm_cvtpd_ps(_mm_loadu_pd(values.data() + i + 2)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * i),
                     ByteSwap32x4(_mm_castps_si128(f)));
  }
  EncodeBeRow<uint32_t>(values.subspan(i), out + 4 * i, DoubleToFloatBits);
}

int64_t SaturateRound(double v, int64_t lo, int64_t hi) {
  if (std::isnan(v)) {
    return 0;
  }
  const double r = std::nearbyint(v);
  if (r <= static_cast<double>(lo)) {
    return lo;
  }
  if (r >= static_cast<double>(hi)) {
    return hi;
  }
  return static_cast<int64_t>(r);
}

}  // namespace

std::string FitsEncodeHeader(const FitsHeader& header) {
  std::string out;
  out += Card("SIMPLE", "T", "conforms to FITS standard");
  out += Card("BITPIX", std::to_string(header.bitpix), "bits per data element");
  out += Card("NAXIS", std::to_string(header.naxis.size()), "number of axes");
  for (size_t i = 0; i < header.naxis.size(); ++i) {
    out += Card("NAXIS" + std::to_string(i + 1), std::to_string(header.naxis[i]));
  }
  out += EndCard();
  const size_t padded = ((out.size() + kFitsBlock - 1) / kFitsBlock) * kFitsBlock;
  out.resize(padded, ' ');
  return out;
}

Result<FitsHeader> FitsParseHeader(std::string_view bytes) {
  FitsHeader header;
  header.bitpix = 0;
  int64_t naxis_count = -1;
  size_t pos = 0;
  bool saw_end = false;
  bool saw_simple = false;
  while (pos + kFitsCardLen <= bytes.size()) {
    const std::string_view card = bytes.substr(pos, kFitsCardLen);
    pos += kFitsCardLen;
    const std::string_view keyword = card.substr(0, 8);
    if (keyword.starts_with("END")) {
      saw_end = true;
      break;
    }
    // Value cards: "KEYWORD = value [/ comment]".
    std::string_view value;
    if (card.size() > 10 && card[8] == '=') {
      value = card.substr(10);
      const size_t slash = value.find('/');
      if (slash != std::string_view::npos) {
        value = value.substr(0, slash);
      }
      while (!value.empty() && value.front() == ' ') {
        value.remove_prefix(1);
      }
      while (!value.empty() && value.back() == ' ') {
        value.remove_suffix(1);
      }
    }
    if (keyword.starts_with("SIMPLE")) {
      if (value != "T") {
        return Err::kInval;
      }
      saw_simple = true;
    } else if (keyword.starts_with("BITPIX")) {
      header.bitpix = static_cast<int>(std::strtol(std::string(value).c_str(), nullptr, 10));
    } else if (keyword.starts_with("NAXIS")) {
      const std::string_view axis = keyword.substr(5);
      const int64_t v = std::strtoll(std::string(value).c_str(), nullptr, 10);
      if (axis.empty() || axis[0] == ' ') {
        naxis_count = v;
        if (naxis_count < 0 || naxis_count > 8) {
          return Err::kInval;
        }
        header.naxis.assign(static_cast<size_t>(naxis_count), 0);
      } else {
        const int idx = static_cast<int>(std::strtol(std::string(axis).c_str(), nullptr, 10));
        if (idx < 1 || idx > static_cast<int>(header.naxis.size()) || v < 0) {
          return Err::kInval;
        }
        header.naxis[static_cast<size_t>(idx - 1)] = v;
      }
    }
    // Unknown keywords are permitted and ignored.
  }
  if (!saw_end || !saw_simple || naxis_count < 0) {
    return Err::kInval;
  }
  switch (header.bitpix) {
    case 8:
    case 16:
    case 32:
    case -32:
    case -64:
      break;
    default:
      return Err::kInval;
  }
  header.data_offset = static_cast<int64_t>(((pos + kFitsBlock - 1) / kFitsBlock) * kFitsBlock);
  // Every size the header implies must fit in int64: the header plus the data
  // unit padded to the block, which is the axis product times the element
  // size. The element size goes first, so no partial product here is smaller
  // than element_count()'s.
  int64_t data_bytes = header.naxis.empty() ? 0 : header.element_size();
  for (const int64_t d : header.naxis) {
    if (__builtin_mul_overflow(data_bytes, d, &data_bytes)) {
      return Err::kInval;
    }
  }
  const int64_t pad = (kFitsBlock - data_bytes % kFitsBlock) % kFitsBlock;
  if (int64_t end = 0; __builtin_add_overflow(data_bytes, pad, &end) ||
                       __builtin_add_overflow(end, header.data_offset, &end)) {
    return Err::kInval;
  }
  return header;
}

void FitsEncodePixel(double value, int bitpix, char* out) {
  switch (bitpix) {
    case 8:
      PutBe(static_cast<uint64_t>(SaturateRound(value, 0, 255)), 1, out);
      return;
    case 16:
      PutBe(static_cast<uint64_t>(static_cast<uint16_t>(
                SaturateRound(value, std::numeric_limits<int16_t>::min(),
                              std::numeric_limits<int16_t>::max()))),
            2, out);
      return;
    case 32:
      PutBe(static_cast<uint64_t>(static_cast<uint32_t>(
                SaturateRound(value, std::numeric_limits<int32_t>::min(),
                              std::numeric_limits<int32_t>::max()))),
            4, out);
      return;
    case -32:
      PutBe(std::bit_cast<uint32_t>(static_cast<float>(value)), 4, out);
      return;
    case -64:
      PutBe(std::bit_cast<uint64_t>(value), 8, out);
      return;
    default:
      SLED_CHECK(false, "unsupported BITPIX %d", bitpix);
  }
}

void FitsEncodeRow(std::span<const double> values, int bitpix, char* out) {
  switch (bitpix) {
    case 8:
      return EncodeBeRow<uint8_t>(values, out, [](double v) { return SaturateRound(v, 0, 255); });
    case 16:
      return EncodeBeRow<uint16_t>(values, out, [](double v) {
        return SaturateRound(v, std::numeric_limits<int16_t>::min(),
                             std::numeric_limits<int16_t>::max());
      });
    case 32:
      return EncodeBeRow<uint32_t>(values, out, [](double v) {
        return SaturateRound(v, std::numeric_limits<int32_t>::min(),
                             std::numeric_limits<int32_t>::max());
      });
    case -32:
      return EncodeFloatRow(values, out);
    case -64:
      return EncodeBeRow<uint64_t>(values, out,
                                   [](double v) { return std::bit_cast<uint64_t>(v); });
    default:
      SLED_CHECK(false, "unsupported BITPIX %d", bitpix);
  }
}

double FitsDecodePixel(const char* in, int bitpix) {
  switch (bitpix) {
    case 8:
      return static_cast<double>(GetBe(in, 1));
    case 16:
      return static_cast<double>(static_cast<int16_t>(GetBe(in, 2)));
    case 32:
      return static_cast<double>(static_cast<int32_t>(GetBe(in, 4)));
    case -32:
      return static_cast<double>(std::bit_cast<float>(static_cast<uint32_t>(GetBe(in, 4))));
    case -64:
      return std::bit_cast<double>(GetBe(in, 8));
    default:
      SLED_CHECK(false, "unsupported BITPIX %d", bitpix);
  }
}

Result<void> FitsWriteImageRows(SimKernel& kernel, Process& process, std::string_view path,
                                const FitsHeader& header, const FitsRowSource& next_row) {
  constexpr size_t kChunk = 64 * kKiB;  // a whole number of pixels at every BITPIX
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Create(process, path));
  const std::string encoded_header = FitsEncodeHeader(header);
  SLED_RETURN_IF_ERROR(kernel.Write(
      process, fd, std::span<const char>(encoded_header.data(), encoded_header.size())));

  const size_t elem = static_cast<size_t>(header.element_size());
  const int64_t row_len = header.naxis.empty() ? 0 : header.naxis[0];
  const int64_t rows = row_len == 0 ? 0 : header.element_count() / row_len;
  std::string chunk(kChunk, '\0');
  size_t used = 0;
  auto flush = [&]() -> Result<void> {
    if (used > 0) {
      SLED_RETURN_IF_ERROR(kernel.Write(process, fd, std::span<const char>(chunk.data(), used)));
      used = 0;
    }
    return Result<void>::Ok();
  };
  for (int64_t y = 0; y < rows; ++y) {
    std::span<const double> row = next_row();
    SLED_CHECK(row.size() == static_cast<size_t>(row_len), "FITS row of %zu pixels, want %lld",
               row.size(), static_cast<long long>(row_len));
    while (!row.empty()) {
      const size_t n = std::min(row.size(), (kChunk - used) / elem);
      FitsEncodeRow(row.first(n), header.bitpix, chunk.data() + used);
      used += n * elem;
      row = row.subspan(n);
      if (used == kChunk) {
        SLED_RETURN_IF_ERROR(flush());
      }
    }
  }
  SLED_RETURN_IF_ERROR(flush());
  // Pad the data unit to the blocking factor.
  const int64_t pad = header.padded_data_bytes() - header.data_bytes();
  if (pad > 0) {
    const std::string zeros(static_cast<size_t>(pad), '\0');
    SLED_RETURN_IF_ERROR(
        kernel.Write(process, fd, std::span<const char>(zeros.data(), zeros.size())));
  }
  return kernel.Close(process, fd);
}

Result<void> FitsWriteImage(SimKernel& kernel, Process& process, std::string_view path,
                            const FitsImage& image) {
  const FitsHeader& header = image.header;
  if (image.pixels.size() != static_cast<size_t>(header.element_count())) {
    return Err::kInval;
  }
  const size_t row_len = header.naxis.empty() ? 0 : static_cast<size_t>(header.naxis[0]);
  const double* next = image.pixels.data();
  return FitsWriteImageRows(kernel, process, path, header, [&] {
    const std::span<const double> row(next, row_len);
    next += row_len;
    return row;
  });
}

Result<FitsHeader> FitsReadHeader(SimKernel& kernel, Process& process, int fd) {
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, 0, Whence::kSet));
  std::string bytes;
  while (true) {
    std::string block(static_cast<size_t>(kFitsBlock), '\0');
    SLED_ASSIGN_OR_RETURN(int64_t n,
                          kernel.Read(process, fd, std::span<char>(block.data(), block.size())));
    if (n < kFitsBlock) {
      return Err::kInval;  // truncated header
    }
    bytes += block;
    auto parsed = FitsParseHeader(bytes);
    if (parsed.ok()) {
      return parsed;
    }
    if (bytes.size() > static_cast<size_t>(64 * kFitsBlock)) {
      return Err::kInval;  // runaway header
    }
  }
}

Result<FitsImage> FitsReadImage(SimKernel& kernel, Process& process, std::string_view path) {
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  SLED_ASSIGN_OR_RETURN(FitsHeader header, FitsReadHeader(kernel, process, fd));
  FitsImage image;
  image.header = header;
  image.pixels.resize(static_cast<size_t>(header.element_count()));
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, header.data_offset, Whence::kSet));
  constexpr int64_t kRead = 64 * kKiB;
  const size_t elem = static_cast<size_t>(header.element_size());
  // Room for one read behind the partial element a short read may leave.
  std::vector<char> buf(static_cast<size_t>(kRead) + elem);
  size_t held = 0;
  std::span<double> unfilled(image.pixels);
  for (int64_t remaining = header.data_bytes(); remaining > 0;) {
    const int64_t want = std::min(kRead, remaining);
    SLED_ASSIGN_OR_RETURN(
        int64_t n,
        kernel.Read(process, fd, std::span<char>(buf.data() + held, static_cast<size_t>(want))));
    if (n <= 0) {
      // Error path: fd cleanup is best-effort; the original error is the story.
      (void)kernel.Close(process, fd);
      return Err::kInval;
    }
    held += static_cast<size_t>(n);
    remaining -= n;
    const size_t whole = held / elem;
    FitsDecodeRow(buf.data(), header.bitpix, unfilled.first(whole));
    unfilled = unfilled.subspan(whole);
    held -= whole * elem;
    std::memmove(buf.data(), buf.data() + whole * elem, held);
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  return image;
}

}  // namespace sled
