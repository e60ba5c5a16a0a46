#include "src/apps/fimhisto.h"

#include <cmath>
#include <limits>

#include "src/apps/fits_scan.h"
#include "src/progs/program.h"

namespace sled {
namespace {

// Pass 1: byte-for-byte copy of the whole input file (header + data unit),
// 64 KiB per read() and write(), straight from the input's store to the
// output's.
Result<void> CopyFile(SimKernel& kernel, Process& process, int in_fd, std::string_view output,
                      int* out_fd) {
  SLED_ASSIGN_OR_RETURN(*out_fd, kernel.Create(process, output));
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, in_fd, 0, Whence::kSet));
  while (true) {
    SLED_ASSIGN_OR_RETURN(std::string_view chunk, kernel.ReadView(process, in_fd, 64 * kKiB));
    if (chunk.empty()) {
      return Result<void>::Ok();
    }
    SLED_ASSIGN_OR_RETURN(int64_t w, kernel.Write(process, *out_fd, chunk));
    if (w != static_cast<int64_t>(chunk.size())) {
      return Err::kIo;
    }
  }
}

}  // namespace

Result<FimhistoResult> FimhistoApp::Run(SimKernel& kernel, Process& process,
                                        std::string_view input, std::string_view output,
                                        const FimhistoOptions& options) {
  if (options.num_bins <= 0) {
    return Err::kInval;
  }
  SLED_ASSIGN_OR_RETURN(int in_fd, kernel.Open(process, input));
  SLED_ASSIGN_OR_RETURN(FitsHeader header, FitsReadHeader(kernel, process, in_fd));

  // ---- pass 1: copy ----
  int out_fd = -1;
  {
    auto copied = CopyFile(kernel, process, in_fd, output, &out_fd);
    if (!copied.ok()) {
      // Error path: fd cleanup is best-effort; the original error is the story.
      (void)kernel.Close(process, in_fd);
      return copied.error();
    }
  }

  FimhistoResult result;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  if (options.kernel_program) {
    // Completion-program variant: one kHistogram program performs both the
    // min/max pass and the binning pass at I/O completion, using the header
    // geometry the app already parsed. Costs match the oracle's per-element
    // charges (format conversion + image op), expressed per byte.
    ProgSpec spec;
    spec.kind = ProgKind::kHistogram;
    spec.num_bins = options.num_bins;
    spec.bitpix = header.bitpix;
    spec.data_offset = header.data_offset;
    spec.element_count = header.element_count();
    spec.chunk_bytes = options.buffer_elements * header.element_size();
    spec.step_cost_ns_per_byte =
        static_cast<double>(
            (options.costs.fits_per_element + options.costs.image_per_element).nanos()) /
        static_cast<double>(header.element_size());
    auto run = [&]() -> Result<ProgResult> {
      SLED_RETURN_IF_ERROR(kernel.InstallProgram(process, in_fd, spec));
      return kernel.RunProgram(process, in_fd);
    }();
    if (run.ok() && run->status != ProgStatus::kOk) {
      run = Err::kInval;  // program exceeded its sandbox budget
    }
    if (!run.ok()) {
      // Error path: fd cleanup is best-effort; the original error is the story.
      (void)kernel.Close(process, in_fd);
      (void)kernel.Close(process, out_fd);
      return run.error();
    }
    lo = run->min_value;
    hi = run->max_value;
    result.min_value = lo;
    result.max_value = hi;
    result.bins.assign(run->bins.begin(), run->bins.begin() + options.num_bins);
  } else {
  // ---- pass 2: min/max (with format conversion) ----
  SLED_RETURN_IF_ERROR(FitsScanElements(
      kernel, process, in_fd, header, options.use_sleds, options.buffer_elements, options.costs,
      [&](int64_t /*first*/, std::span<const double> values) {
        HistogramMinMax(values, &lo, &hi);
        kernel.ChargeAppCpu(process,
                            options.costs.image_per_element *
                                static_cast<int64_t>(values.size()));
      }));
  if (!std::isfinite(lo)) {
    lo = 0.0;
    hi = 0.0;
  }
  result.min_value = lo;
  result.max_value = hi;

  // ---- pass 3: bin ----
  result.bins.assign(static_cast<size_t>(options.num_bins), 0);
  const double width = hi > lo ? (hi - lo) / options.num_bins : 1.0;
  SLED_RETURN_IF_ERROR(FitsScanElements(
      kernel, process, in_fd, header, options.use_sleds, options.buffer_elements, options.costs,
      [&](int64_t /*first*/, std::span<const double> values) {
        HistogramBin(values, lo, width, result.bins);
        kernel.ChargeAppCpu(process,
                            options.costs.image_per_element *
                                static_cast<int64_t>(values.size()));
      }));
  }

  // Append the histogram to the output as a small extension: one header
  // block plus the bins as big-endian doubles, padded to the FITS block.
  {
    std::string ext;
    char card[128];
    std::snprintf(card, sizeof(card), "XTENSION= 'HISTOGRAM'  NBINS = %d  MIN = %g  MAX = %g",
                  options.num_bins, lo, hi);
    ext = card;
    ext.resize(static_cast<size_t>(kFitsBlock), ' ');
    std::string data;
    char scratch[8];
    for (int64_t count : result.bins) {
      FitsEncodePixel(static_cast<double>(count), -64, scratch);
      data.append(scratch, 8);
    }
    data.resize(((data.size() + kFitsBlock - 1) / kFitsBlock) * kFitsBlock, '\0');
    ext += data;
    SLED_RETURN_IF_ERROR(kernel.Lseek(process, out_fd, 0, Whence::kEnd));
    SLED_RETURN_IF_ERROR(
        kernel.Write(process, out_fd, std::span<const char>(ext.data(), ext.size())));
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, in_fd));
  SLED_RETURN_IF_ERROR(kernel.Close(process, out_fd));
  return result;
}

}  // namespace sled
