// Deterministic event-trace ring buffer: timestamped records of syscall
// entry/exit, page-ins, readahead batches, writeback activity, raw device
// transfers, and SLED scans. This is the per-request record stream that
// aggregate counters cannot replace when attributing latency across layers
// (cf. Boukhobza & Timsit's per-request disk traces, and Borge et al.'s
// cross-layer SSD variability study).
//
// Timestamps come from the SimClock; pushing or dumping events never
// advances it. The ring has fixed capacity and drops the oldest events,
// keeping a monotonic sequence number so drops are visible in dumps. All
// rendering is integer-valued: two identical runs dump byte-identical text.
//
// Records are trivially copyable: a tag is a view, never an owned string, so
// pushing one copies 72 bytes and allocates nothing.
#ifndef SLEDS_SRC_OBS_TRACE_H_
#define SLEDS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sim_time.h"

namespace sled {

enum class TraceKind : uint8_t {
  kSyscallEnter,
  kSyscallExit,
  kPageIn,
  kReadahead,
  kWritebackQueue,
  kWritebackFlush,
  kDeviceRead,
  kDeviceWrite,
  kSledScan,
  kIoSubmit,
  kIoDispatch,
  kIoWait,
  kDeviceError,
  kIoRetry,
  kWritebackError,
  kReplicaDegraded,
  kReplicaStale,
  kReplicaRecovery,
  kReplicaHedge,
  kProgInstall,
  kProgResubmit,
  kProgDone,
};

std::string_view TraceKindName(TraceKind kind);

struct TraceRecord {
  TimePoint at;            // simulated time of the event
  TraceKind kind = TraceKind::kSyscallEnter;
  int32_t pid = 0;         // triggering process, 0 = kernel
  int32_t level = -1;      // global storage level, -1 when not applicable
  uint64_t file = 0;       // FileId, 0 when not applicable
  int64_t a = 0;           // kind-specific: page / byte offset
  int64_t b = 0;           // kind-specific: page count / byte count
  Duration dur;            // service time or syscall latency, 0 when n/a
  // Syscall, device, queue or file-system name, may be empty. A view of
  // static storage or of a name its Observer owns for its whole lifetime
  // (Observer::TagName); whoever pushes a record keeps its tag alive.
  std::string_view tag;
};

class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Push(const TraceRecord& event) {
    if (events_.size() < capacity_) {
      events_.push_back(event);
    } else {
      events_[head_] = event;
      if (++head_ == capacity_) {
        head_ = 0;
      }
    }
    ++total_;
  }

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  // Events ever pushed / dropped by overflow.
  int64_t total() const { return total_; }
  int64_t dropped() const { return total_ - static_cast<int64_t>(events_.size()); }

  // Retained events, oldest first.
  std::vector<TraceRecord> Snapshot() const;

  // CSV dump of the last `max_events` retained events (default: all), with a
  // header line. Columns: seq,t_ns,kind,pid,level,file,a,b,dur_ns,tag.
  std::string DumpCsv(size_t max_events = SIZE_MAX) const;

  void Clear();

 private:
  size_t capacity_;
  std::vector<TraceRecord> events_;  // ring storage
  size_t head_ = 0;                 // index of the oldest event once full
  int64_t total_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_OBS_TRACE_H_
