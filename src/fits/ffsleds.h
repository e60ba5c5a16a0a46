// The ff* SLEDs layer for LHEASOFT (paper §5.3): "an additional library ...
// that allows applications to access SLEDs in units of data elements (usually
// floating point numbers), rather than bytes; the calls are the same, with ff
// prepended."
//
// FfPicker wraps SledsPicker with element alignment derived from a FITS
// header and converts byte picks into (element index, element count) advice
// restricted to the data unit.
#ifndef SLEDS_SRC_FITS_FFSLEDS_H_
#define SLEDS_SRC_FITS_FFSLEDS_H_

#include <memory>

#include "src/fits/fits.h"
#include "src/sleds/c_api.h"
#include "src/sleds/picker.h"

namespace sled {

class FfPicker {
 public:
  struct ElementPick {
    int64_t first_element = 0;
    int64_t count = 0;  // 0 => all elements offered
  };

  // `preferred_elements` bounds each pick's element count.
  static Result<std::unique_ptr<FfPicker>> Create(SimKernel& kernel, Process& process, int fd,
                                                  const FitsHeader& header,
                                                  int64_t preferred_elements);

  // Next advised run of whole elements (lowest retrieval latency first).
  // Header/padding bytes the byte-level picker offers are skipped.
  Result<ElementPick> NextRead();

 private:
  FfPicker(std::unique_ptr<SledsPicker> picker, FitsHeader header)
      : picker_(std::move(picker)), header_(header) {}

  std::unique_ptr<SledsPicker> picker_;
  FitsHeader header_;
};

// C-style bindings mirroring the paper's ff-prefixed calls.
long ffsleds_pick_init(SledsContext ctx, int fd, long preferred_elements);
int ffsleds_pick_next_read(SledsContext ctx, int fd, long* first_element, long* element_count);
int ffsleds_pick_finish(SledsContext ctx, int fd);

}  // namespace sled

#endif  // SLEDS_SRC_FITS_FFSLEDS_H_
