// grep — fixed-string line search, with and without SLEDs (paper §4.3/§5.2).
//
// The SLEDs adaptation follows the paper's description: the file is traversed
// in the order recommended by the pick library (record-oriented, so no line
// ever spans a low/high-latency seam), matches are buffered, sorted by their
// offset in the file at the end, and only then "dumped to stdout" — which is
// why switches like -b and -n had to be reimplemented (line numbers are not
// known until the whole file has been seen).
//
// Two modes are measured in the paper: a full pass over the file, and -q
// (terminate on the first match found — with SLEDs that is the first match
// in *pick* order, which is exactly where the dramatic speedups come from).
#ifndef SLEDS_SRC_APPS_GREP_H_
#define SLEDS_SRC_APPS_GREP_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/apps/app_costs.h"
#include "src/common/result.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

struct GrepOptions {
  bool use_sleds = false;
  bool quiet_first_match = false;  // -q: stop at the first match
  bool line_numbers = false;       // -n
  bool byte_offsets = false;       // -b
  // Context lines (-B / -A). In SLEDs mode context never crosses a SLED
  // seam: record-oriented picking aligns seams to line boundaries, and the
  // library does not fetch extra data just for context — the same
  // restructuring cost the paper describes for its buffered output.
  int before_context = 0;
  int after_context = 0;
  int64_t buffer_bytes = kDefaultAppBuffer;
  // Run the scan as a kernel-resident completion program (kFindFirst):
  // requires -q (the program returns found/offset, not match lines). The
  // kernel scans chunks at completion, stops at the first hit, and cancels
  // queued readahead past it — zero per-chunk syscalls. With use_sleds the
  // in-kernel plan consumes SLED sections lowest-latency-first.
  bool kernel_program = false;
  AppCpuCosts costs;
};

struct GrepMatch {
  int64_t line_offset = 0;  // byte offset of the start of the matching line
  int64_t line_number = 0;  // 1-based; filled when -n was requested
  std::string line;
  std::vector<std::string> before;  // -B context, oldest first
  std::vector<std::string> after;   // -A context, in file order

  friend bool operator==(const GrepMatch&, const GrepMatch&) = default;
};

struct GrepResult {
  bool found = false;
  // In file order (the SLEDs path sorts before returning). Empty under -q.
  std::vector<GrepMatch> matches;
};

class GrepApp {
 public:
  // kInval for an empty pattern, a pattern that holds '\n' (a line never
  // does, so it could only match across lines) or buffer_bytes <= 0.
  static Result<GrepResult> Run(SimKernel& kernel, Process& process, std::string_view path,
                                std::string_view pattern, const GrepOptions& options);
};

// Every match position of `needle` in `haystack`, overlapping ones included;
// an empty needle matches nothing. It runs std::string_view::find, the one
// search grep's scanners and the kFindFirst program share, and keeps the
// Horspool name because perfbench's apps.horspool_ns_per_byte probe calls it.
std::vector<size_t> HorspoolSearchAll(std::string_view haystack, std::string_view needle);

}  // namespace sled

#endif  // SLEDS_SRC_APPS_GREP_H_
