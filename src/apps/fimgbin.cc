#include "src/apps/fimgbin.h"

#include <emmintrin.h>

#include <algorithm>
#include <vector>

#include "src/apps/fits_scan.h"

namespace sled {
namespace {

// Adds `cells` whole boxes of one input row, `box` consecutive pixels each,
// to s[0, cells).
void AddWholeCells(const double* v, int64_t box, int64_t cells, double* s) {
  int64_t c = 0;
  if (box % 2 == 0) {
    // Two cells per step, one per lane; each lane adds its cell's pixels in
    // order, two per load.
    for (; c + 2 <= cells; c += 2) {
      const double* a = v + c * box;
      const double* b = a + box;
      __m128d sum = _mm_loadu_pd(s + c);
      for (int64_t k = 0; k < box; k += 2) {
        const __m128d x = _mm_loadu_pd(a + k);
        const __m128d y = _mm_loadu_pd(b + k);
        sum = _mm_add_pd(sum, _mm_unpacklo_pd(x, y));
        sum = _mm_add_pd(sum, _mm_unpackhi_pd(x, y));
      }
      _mm_storeu_pd(s + c, sum);
    }
  }
  for (; c < cells; ++c) {
    double sum = s[c];
    for (int64_t k = 0; k < box; ++k) {
      sum += v[c * box + k];
    }
    s[c] = sum;
  }
}

}  // namespace

void FimgbinAccumulate(int64_t first, std::span<const double> values, int64_t in_w, int64_t box,
                       std::span<double> sums) {
  const int64_t out_w = in_w / box;
  const double* v = values.data();
  // One input row's part of the run per step: a head up to the next box
  // boundary, whole boxes, then a tail that starts a box.
  for (int64_t left = static_cast<int64_t>(values.size()), at = first; left > 0;) {
    const int64_t x = at % in_w;
    const int64_t len = std::min(in_w - x, left);
    double* s = sums.data() + at / in_w / box * out_w + x / box;
    int64_t i = 0;
    if (x % box != 0) {
      for (const int64_t head = std::min(len, box - x % box); i < head; ++i) {
        *s += v[i];
      }
      ++s;
    }
    const int64_t cells = (len - i) / box;
    AddWholeCells(v + i, box, cells, s);
    i += cells * box;
    s += cells;
    for (; i < len; ++i) {
      *s += v[i];
    }
    v += len;
    at += len;
    left -= len;
  }
}

Result<FimgbinResult> FimgbinApp::Run(SimKernel& kernel, Process& process, std::string_view input,
                                      std::string_view output, const FimgbinOptions& options) {
  if (options.boxcar < 1) {
    return Err::kInval;
  }
  SLED_ASSIGN_OR_RETURN(int in_fd, kernel.Open(process, input));
  SLED_ASSIGN_OR_RETURN(FitsHeader header, FitsReadHeader(kernel, process, in_fd));
  if (header.naxis.size() != 2 || header.naxis[0] % options.boxcar != 0 ||
      header.naxis[1] % options.boxcar != 0) {
    // Error path: fd cleanup is best-effort; the original error is the story.
    (void)kernel.Close(process, in_fd);
    return Err::kInval;
  }
  const int64_t in_w = header.naxis[0];
  const int64_t out_w = in_w / options.boxcar;
  const int64_t out_h = header.naxis[1] / options.boxcar;

  // Accumulate boxcar sums. Input elements may arrive in any order (SLEDs
  // mode), so the whole output plane is buffered — the "array-based code ...
  // does more internal buffering" the paper notes for fimgbin's write path.
  std::vector<double> sums(static_cast<size_t>(out_w * out_h), 0.0);
  SLED_RETURN_IF_ERROR(FitsScanElements(
      kernel, process, in_fd, header, options.use_sleds, options.buffer_elements, options.costs,
      [&](int64_t first, std::span<const double> values) {
        FimgbinAccumulate(first, values, in_w, options.boxcar, sums);
        kernel.ChargeAppCpu(process,
                            options.costs.image_per_element *
                                static_cast<int64_t>(values.size()));
      }));
  SLED_RETURN_IF_ERROR(kernel.Close(process, in_fd));

  // Average and write the reduced image (same BITPIX as the input) one output
  // row at a time, scaling the sums in place.
  FimgbinResult result;
  result.out_width = out_w;
  result.out_height = out_h;
  FitsHeader out_header;
  out_header.bitpix = header.bitpix;
  out_header.naxis = {out_w, out_h};
  const double scale = 1.0 / (static_cast<double>(options.boxcar) * options.boxcar);
  kernel.ChargeAppCpu(process,
                      options.costs.image_per_element * static_cast<int64_t>(sums.size()));
  double* next_row = sums.data();
  SLED_RETURN_IF_ERROR(FitsWriteImageRows(kernel, process, output, out_header, [&] {
    const std::span<double> row(next_row, static_cast<size_t>(out_w));
    next_row += out_w;
    for (double& v : row) {
      v *= scale;
      result.output_sum += v;
    }
    return std::span<const double>(row);
  }));
  return result;
}

}  // namespace sled
