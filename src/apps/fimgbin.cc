#include "src/apps/fimgbin.h"

#include <vector>

#include "src/apps/fits_scan.h"

namespace sled {

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
        // Divide once per run, then step: the output column advances every
        // `boxcar` pixels and the output row every `boxcar` input rows. Runs
        // may start mid-row (SLEDs mode).
        const int64_t box = options.boxcar;
        const int64_t x = first % in_w;
        const int64_t y = first / in_w;
        int64_t x_in_box = x % box;
        int64_t y_in_box = y % box;
        int64_t out_x = x / box;
        int64_t out_row = y / box * out_w;
        for (const double v : values) {
          sums[static_cast<size_t>(out_row + out_x)] += v;
          if (++x_in_box == box) {
            x_in_box = 0;
            if (++out_x == out_w) {
              out_x = 0;
              if (++y_in_box == box) {
                y_in_box = 0;
                out_row += out_w;
              }
            }
          }
        }
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
