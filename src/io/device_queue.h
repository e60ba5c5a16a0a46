// DeviceQueue: the pending-request queue of one storage device (one mounted
// file system's backing store). Holds requests between submit and dispatch,
// picks the next request according to the configured policy, and (under
// C-LOOK) merges adjacent pending requests into one device access.
//
// The queue itself is pure ordering logic — it never touches a device or the
// clock. The IoScheduler owns the timeline (busy_until, completion times) and
// asks the queue only "which request(s) would the device service next if it
// went idle at time `at`?". Causality rule: only requests with submit <= `at`
// are candidates; a request submitted after the decision instant cannot
// influence it.
#ifndef SLEDS_SRC_IO_DEVICE_QUEUE_H_
#define SLEDS_SRC_IO_DEVICE_QUEUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/io/io_request.h"

namespace sled {

struct DeviceQueueConfig {
  // kClook also merges pending requests that are logically and physically
  // adjacent to the picked request into one dispatch (adjacent-request
  // coalescing); kFifo dispatches each request alone.
  IoPolicy policy = IoPolicy::kFifo;
};

// Upper bound on one merged dispatch, in pages.
inline constexpr int64_t kMaxMergePages = 256;

struct DeviceQueueStats {
  int64_t submitted = 0;
  int64_t dispatched_batches = 0;
  int64_t dispatched_pages = 0;
  int64_t merged = 0;    // requests folded into another request's dispatch
  int64_t canceled = 0;
  int64_t max_depth = 0;
};

// One dispatch decision: `merged` is the single device access to perform
// (covering every part's pages), `parts` are the original requests it
// completes, in ascending page order.
struct IoBatch {
  IoRequest merged;
  std::vector<IoRequest> parts;
};

class DeviceQueue {
 public:
  DeviceQueue(std::string name, DeviceQueueConfig config);

  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;

  const std::string& name() const { return name_; }
  bool empty() const { return pending_.empty(); }
  int64_t depth() const { return static_cast<int64_t>(pending_.size()); }
  const DeviceQueueStats& stats() const { return stats_; }

  void Push(IoRequest req);
  bool HasPending(int64_t id) const;

  // Earliest submit time among pending requests (the soonest instant an idle
  // device could start servicing the queue). Requires non-empty.
  TimePoint EarliestSubmit() const;

  // Pick and remove the next batch the device would service at decision time
  // `at`. Candidates are requests with submit <= at; requires at least one
  // (i.e. at >= EarliestSubmit()). Updates the elevator head position.
  IoBatch PopBatch(TimePoint at);

  // Remove and return every pending request matching `pred` (truncate/unlink
  // cancellation). Already-dispatched requests are not here and cannot be
  // recalled.
  std::vector<IoRequest> CancelMatching(const std::function<bool(const IoRequest&)>& pred);

  // Pages still pending per op (writeback-drain planning; also consulted per
  // demand miss by the readahead budget, so kept as a running counter instead
  // of an O(depth) scan).
  int64_t PendingPages(IoOp op) const {
    return pending_pages_[static_cast<size_t>(op)];
  }
  void ForEachPending(const std::function<void(const IoRequest&)>& fn) const;

 private:
  // Index into pending_ of the primary candidate at decision time `at`.
  size_t PickPrimary(TimePoint at) const;

  std::string name_;
  DeviceQueueConfig config_;
  std::vector<IoRequest> pending_;  // arrival order (ids strictly increase)
  // C-LOOK sweep position: device address one past the last dispatched byte.
  int64_t head_addr_ = 0;
  int64_t pending_pages_[2] = {0, 0};  // indexed by IoOp; mirrors pending_
  DeviceQueueStats stats_;
};

}  // namespace sled

#endif  // SLEDS_SRC_IO_DEVICE_QUEUE_H_
