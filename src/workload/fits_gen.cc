#include "src/workload/fits_gen.h"

#include <cmath>
#include <vector>

namespace sled {

Result<FitsHeader> GenerateFitsImage(SimKernel& kernel, Process& process, std::string_view path,
                                     int64_t approx_bytes, int bitpix, Rng& rng) {
  const int64_t elem = (bitpix < 0 ? -bitpix : bitpix) / 8;
  if (elem == 0 || approx_bytes < kFitsBlock * 2) {
    return Err::kInval;
  }
  int64_t side = static_cast<int64_t>(std::sqrt(static_cast<double>(approx_bytes / elem)));
  side -= side % 4;
  if (side < 4) {
    return Err::kInval;
  }
  FitsHeader header;
  header.bitpix = bitpix;
  header.naxis = {side, side};
  std::vector<double> row(static_cast<size_t>(side));
  int64_t y = 0;
  SLED_RETURN_IF_ERROR(FitsWriteImageRows(kernel, process, path, header, [&] {
    for (int64_t x = 0; x < side; ++x) {
      const double gradient = 100.0 * (static_cast<double>(x + y) / static_cast<double>(2 * side));
      row[static_cast<size_t>(x)] = gradient + rng.Normal(0.0, 5.0);
    }
    ++y;
    return std::span<const double>(row);
  }));
  header.data_offset = static_cast<int64_t>(FitsEncodeHeader(header).size());
  return header;
}

}  // namespace sled
