// A compact FITS (Flexible Image Transport System) implementation — the
// astronomical image format the paper's LHEASOFT experiments process (§4.3:
// "The FITS format includes image metadata, as well as the data itself").
//
// Supported subset (enough for fimhisto / fimgbin):
//   * primary HDU with an N-dimensional image
//   * BITPIX 8, 16, 32 (big-endian two's-complement ints) and -32, -64
//     (big-endian IEEE floats)
//   * 80-character header cards in 2880-byte blocks, END-terminated
//   * data unit zero-padded to a 2880-byte multiple
//
// Pure encode/parse helpers are separated from kernel-level file I/O so they
// can be tested without a simulated machine.
#ifndef SLEDS_SRC_FITS_FITS_H_
#define SLEDS_SRC_FITS_FITS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

inline constexpr int64_t kFitsBlock = 2880;
inline constexpr int kFitsCardLen = 80;

struct FitsHeader {
  int bitpix = -32;
  std::vector<int64_t> naxis;  // dimension lengths, NAXIS1 first

  int64_t data_offset = 0;  // set by the parser: byte offset of the data unit

  int64_t element_size() const { return (bitpix < 0 ? -bitpix : bitpix) / 8; }
  int64_t element_count() const {
    int64_t n = naxis.empty() ? 0 : 1;
    for (int64_t d : naxis) {
      n *= d;
    }
    return n;
  }
  int64_t data_bytes() const { return element_count() * element_size(); }
  // Data bytes padded to the FITS blocking factor.
  int64_t padded_data_bytes() const {
    return ((data_bytes() + kFitsBlock - 1) / kFitsBlock) * kFitsBlock;
  }
};

// An in-memory image: pixel values as doubles regardless of on-disk BITPIX
// (the format conversion fimhisto performs, §5.3).
struct FitsImage {
  FitsHeader header;
  std::vector<double> pixels;  // row-major, size == header.element_count()
};

// ---- pure helpers ----

// Serialize a header (SIMPLE, BITPIX, NAXIS*, END) padded to a block.
std::string FitsEncodeHeader(const FitsHeader& header);

// Parse a header from the start of `bytes`; sets data_offset. Fails on
// malformed cards or missing END within `bytes`.
Result<FitsHeader> FitsParseHeader(std::string_view bytes);

// Big-endian pixel encode/decode for any supported BITPIX. `out` must have
// element_size bytes. Integer BITPIX values round to nearest even and
// saturate; NaN encodes as 0. These are the per-pixel reference for the row
// codec: FitsEncodeRow below and FitsDecodeRow (src/progs/program.h).
void FitsEncodePixel(double value, int bitpix, char* out);
double FitsDecodePixel(const char* in, int bitpix);

// Encodes `values` into values.size() * element_size bytes at `out` (any
// alignment), byte for byte as FitsEncodePixel would, choosing the BITPIX
// case once per row. BITPIX -32 encodes four pixels per SSE2 step.
void FitsEncodeRow(std::span<const double> values, int bitpix, char* out);

// ---- kernel-level I/O (costed through the simulated OS) ----

// Yields an image's pixel values one row (NAXIS1 values) per call, rows in
// file order. The span must stay valid until the next call.
using FitsRowSource = std::function<std::span<const double>()>;

// Write an image with `header`'s BITPIX and axes to `path` (created or
// truncated), pulling its pixels from `next_row`. The writes are the header,
// the data in 64 KiB chunks (the last one partial), then the block padding.
Result<void> FitsWriteImageRows(SimKernel& kernel, Process& process, std::string_view path,
                                const FitsHeader& header, const FitsRowSource& next_row);

// Write `image` to `path` (created/truncated), as FitsWriteImageRows does.
Result<void> FitsWriteImage(SimKernel& kernel, Process& process, std::string_view path,
                            const FitsImage& image);

// Read and parse the header of an open FITS file (seeks to 0).
Result<FitsHeader> FitsReadHeader(SimKernel& kernel, Process& process, int fd);

// Read a whole image (header + pixels, converting to double).
Result<FitsImage> FitsReadImage(SimKernel& kernel, Process& process, std::string_view path);

}  // namespace sled

#endif  // SLEDS_SRC_FITS_FITS_H_
