// The SLEDs "pick" library (paper §4.2): advises applications where to read
// next so that low-latency (cached / fast-device) data is consumed first.
//
//   sleds_pick_init       -> SledsPicker::Create
//   sleds_pick_next_read  -> SledsPicker::NextRead
//   sleds_pick_finish     -> SledsPicker destruction / Finish
//
// Policy, verbatim from the paper: "The library checks for the lowest latency
// among unseen chunks, then chooses to return the chunk with the lowest file
// offset among those with equivalent latencies. [...] The library will return
// each chunk of the file exactly once."
//
// Record-oriented mode implements Figure 4: the edges of low-latency SLEDs
// are pulled in from page boundaries to record boundaries, pushing the
// leading/trailing record fragments out to the higher-latency neighbours, so
// that applications handling variable-sized records never run off the edge of
// cheap data into an expensive fetch. Finding the boundaries requires the
// library to perform a little I/O itself (on the low-latency side).
#ifndef SLEDS_SRC_SLEDS_PICKER_H_
#define SLEDS_SRC_SLEDS_PICKER_H_

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/kernel/sim_kernel.h"
#include "src/sleds/sled.h"

namespace sled {

struct PickerOptions {
  // Preferred chunk size; NextRead returns chunks of this size or smaller.
  int64_t preferred_chunk_bytes = 64 * kKiB;

  // Record-oriented SLEDs (Figure 4).
  bool record_oriented = false;
  char record_separator = '\n';
  // Farthest the library will scan for a separator before giving up and
  // keeping the page-aligned edge.
  int64_t max_record_scan_bytes = 64 * kKiB;

  // Element-oriented SLEDs, the ff* layer the paper added for LHEASOFT
  // ("allows applications to access SLEDs in units of data elements (usually
  // floating point numbers), rather than bytes", §5.3). When element_size > 0
  // every SLED edge and every pick is aligned to element boundaries measured
  // from element_base (the FITS data-unit start). Purely arithmetic — no
  // boundary-scan I/O is needed, unlike record mode.
  int64_t element_size = 0;
  int64_t element_base = 0;

  // Extension (paper §4.2 closing remark): re-fetch SLEDs from the kernel
  // every N picks to notice prefetch-driven state changes. 0 = snapshot at
  // init only (the paper's implementation).
  int refresh_every_n_picks = 0;

  // Which latency statistic orders (and edge-adjusts) the plan. kMean is the
  // paper's behavior; kP99 sorts by tail risk, deferring sections whose
  // distribution is wide (an SSD inside a GC window) even when their mean
  // looks cheap. Falls back to the mean for uncharacterized SLEDs.
  RankBy rank_by = RankBy::kMean;

  // Drop sections whose storage level is unreachable (Sled::unavailable)
  // from the plan instead of merely deferring them: the picker consumes all
  // reachable data and reports the pruned byte count. With periodic refresh,
  // a section whose down window has ended rejoins the plan on the next
  // rebuild. Off by default — "each chunk exactly once" is the paper's
  // contract.
  bool prune_unavailable = false;
};

class SledsPicker {
 public:
  struct Pick {
    int64_t offset = 0;
    int64_t length = 0;  // 0 => no chunks remain
  };

  // Retrieves SLEDs for `fd` via FSLEDS_GET and builds the pick plan.
  static Result<std::unique_ptr<SledsPicker>> Create(SimKernel& kernel, Process& process, int fd,
                                                     PickerOptions options);

  // Advise the next (offset, length) to read. Each byte of the file is
  // offered exactly once; a zero-length pick signals completion.
  Result<Pick> NextRead();

  // Bytes not yet returned.
  int64_t remaining_bytes() const;
  bool done() const { return remaining_bytes() == 0; }

  // Bytes dropped from the plan because their level was unreachable
  // (prune_unavailable mode). Accumulates across refreshes over the picker's
  // lifetime — a section pruned from the original plan stays counted after
  // later Refresh() calls — and resets only when the plan is rebuilt from
  // scratch (BuildPlan).
  int64_t pruned_bytes() const { return pruned_bytes_; }

  // The (possibly record-adjusted) SLEDs driving the plan, in pick order.
  const SledVector& plan() const { return plan_; }

 private:
  SledsPicker(SimKernel& kernel, Process& process, int fd, PickerOptions options);

  Result<void> BuildPlan();
  // Drop unreachable sections (prune_unavailable), accumulating pruned_bytes_.
  void PruneUnavailable(SledVector& sleds);
  // Pull low-latency SLED edges in to multiples of element_size (from
  // element_base); fragments join the higher-latency neighbour.
  Result<void> AdjustToElementBoundaries(SledVector& sleds) const;
  // Fetch SLEDs, restricted to the given byte ranges (empty = whole file).
  Result<SledVector> FetchSleds(const std::vector<std::pair<int64_t, int64_t>>& ranges);
  Result<void> AdjustToRecordBoundaries(SledVector& sleds);
  // Scan for the separator: forward from `from` (inclusive) up to `limit`,
  // returning the offset just past the first separator, or -1.
  Result<int64_t> ScanForward(int64_t from, int64_t limit);
  // Backward from `from` (exclusive) down to `limit`, returning the offset
  // just past the last separator strictly before `from`, or -1.
  Result<int64_t> ScanBackward(int64_t from, int64_t limit);
  Result<void> Refresh();

  SimKernel& kernel_;
  Process& process_;
  int fd_;
  PickerOptions options_;
  int64_t file_size_ = 0;

  SledVector plan_;       // sorted by (latency, offset)
  size_t current_ = 0;    // index into plan_
  int64_t position_ = 0;  // next byte within plan_[current_]
  int picks_since_refresh_ = 0;
  int64_t pruned_bytes_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_SLEDS_PICKER_H_
