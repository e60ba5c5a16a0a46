// wc — word/line/byte count, with and without SLEDs (paper §4.3/§5.2).
//
// "For wc, since the order of data access is not significant, little overhead
// is generated in modifying the code." Lines and bytes are trivially
// order-independent; words need a small amount of bookkeeping because a word
// can span two chunks that arrive out of order: each processed chunk records
// whether its first/last byte was inside a word, and adjacent chunk pairs
// that were both "in a word" at the seam are merged at the end.
#ifndef SLEDS_SRC_APPS_WC_H_
#define SLEDS_SRC_APPS_WC_H_

#include <string_view>

#include "src/apps/app_costs.h"
#include "src/common/result.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

struct WcResult {
  int64_t lines = 0;
  int64_t words = 0;
  int64_t bytes = 0;

  friend bool operator==(const WcResult&, const WcResult&) = default;
};

struct WcOptions {
  bool use_sleds = false;  // the command-line switch the paper added
  // Access the file through the mmap path instead of read(): no kernel copy,
  // the "mmap-friendly" variant the paper projects in §5.2.
  bool use_mmap = false;
  int64_t buffer_bytes = kDefaultAppBuffer;
  // Run the count as a kernel-resident completion program (kCount): the
  // kernel reduces lines/words/bytes at I/O completion and returns only the
  // three counters — one syscall for the whole file instead of one per
  // buffer. Program plans are sequential (word seams carry in file order),
  // which is also wc's natural access pattern.
  bool kernel_program = false;
  AppCpuCosts costs;
};

class WcApp {
 public:
  // kInval for buffer_bytes <= 0.
  static Result<WcResult> Run(SimKernel& kernel, Process& process, std::string_view path,
                              const WcOptions& options);
};

}  // namespace sled

#endif  // SLEDS_SRC_APPS_WC_H_
