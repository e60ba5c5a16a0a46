#include "src/apps/fits_scan.h"

#include <algorithm>
#include <vector>

#include "src/fits/ffsleds.h"
#include "src/progs/program.h"

namespace sled {
namespace {

// Read and decode `count` elements starting at `first`, then hand them to fn.
Result<void> ReadRun(SimKernel& kernel, Process& process, int fd, const FitsHeader& header,
                     int64_t first, int64_t count, const AppCpuCosts& costs,
                     std::vector<double>* decoded, const ElementRunFn& fn) {
  const int64_t elem = header.element_size();
  SLED_RETURN_IF_ERROR(
      kernel.Lseek(process, fd, header.data_offset + first * elem, Whence::kSet));
  SLED_ASSIGN_OR_RETURN(std::string_view raw, kernel.ReadView(process, fd, count * elem));
  if (static_cast<int64_t>(raw.size()) != count * elem) {
    return Err::kIo;
  }
  decoded->resize(static_cast<size_t>(count));
  FitsDecodeRow(raw.data(), header.bitpix, *decoded);
  kernel.ChargeAppCpu(process, costs.fits_per_element * count);
  fn(first, std::span<const double>(decoded->data(), decoded->size()));
  return Result<void>::Ok();
}

}  // namespace

Result<void> FitsScanElements(SimKernel& kernel, Process& process, int fd,
                              const FitsHeader& header, bool use_sleds, int64_t buffer_elements,
                              const AppCpuCosts& costs, const ElementRunFn& fn) {
  if (buffer_elements <= 0) {
    return Err::kInval;
  }
  std::vector<double> decoded;
  const int64_t total = header.element_count();
  if (!use_sleds) {
    for (int64_t first = 0; first < total; first += buffer_elements) {
      const int64_t count = std::min(buffer_elements, total - first);
      SLED_RETURN_IF_ERROR(
          ReadRun(kernel, process, fd, header, first, count, costs, &decoded, fn));
    }
    return Result<void>::Ok();
  }
  SLED_ASSIGN_OR_RETURN(std::unique_ptr<FfPicker> picker,
                        FfPicker::Create(kernel, process, fd, header, buffer_elements));
  while (true) {
    SLED_ASSIGN_OR_RETURN(FfPicker::ElementPick pick, picker->NextRead());
    if (pick.count == 0) {
      return Result<void>::Ok();
    }
    SLED_RETURN_IF_ERROR(ReadRun(kernel, process, fd, header, pick.first_element, pick.count,
                                 costs, &decoded, fn));
  }
}

}  // namespace sled
