// fimgbin — LHEASOFT image rebinning tool (paper §5.3).
//
// "fimgbin rebins an image with a rectangular boxcar filter. The amount of
// data written is smaller than the input by a fixed factor, typically four
// or 16." A data-reduction factor of four is a 2x2 boxcar; 16 is 4x4. The
// SLEDs adaptation reorders the reads of the input file; output is written
// sequentially afterwards.
#ifndef SLEDS_SRC_APPS_FIMGBIN_H_
#define SLEDS_SRC_APPS_FIMGBIN_H_

#include <span>
#include <string_view>

#include "src/apps/app_costs.h"
#include "src/common/result.h"
#include "src/fits/fits.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

struct FimgbinOptions {
  bool use_sleds = false;
  // Linear boxcar factor: 2 => data reduction 4; 4 => data reduction 16.
  int boxcar = 2;
  int64_t buffer_elements = 16 * 1024;
  AppCpuCosts costs;
};

struct FimgbinResult {
  int64_t out_width = 0;
  int64_t out_height = 0;
  double output_sum = 0.0;  // checksum for validation
};

// Adds a run of input pixels, the first of them at element `first` of an
// image `in_w` pixels wide, to the boxcar sums of the output plane:
// pixel (x, y) goes to sums[(y / box) * (in_w / box) + x / box]. Each cell
// receives its pixels in the run's order, as adding them one at a time would,
// so its sum has the same bits. A run may start mid-row and mid-box (SLEDs
// mode); `in_w` must be a multiple of `box`.
void FimgbinAccumulate(int64_t first, std::span<const double> values, int64_t in_w, int64_t box,
                       std::span<double> sums);

class FimgbinApp {
 public:
  // Input must be a 2-D image whose dimensions are divisible by the boxcar.
  static Result<FimgbinResult> Run(SimKernel& kernel, Process& process, std::string_view input,
                                   std::string_view output, const FimgbinOptions& options);
};

}  // namespace sled

#endif  // SLEDS_SRC_APPS_FIMGBIN_H_
