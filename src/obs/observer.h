// Observer: the kernel-wide observability facade. Owns the event-trace ring
// and the metric registry and exposes one typed hook per instrumented event;
// the kernel, the VFS, the file systems, and the storage devices all report
// through the same Observer so a single export shows where simulated time
// went per syscall, per device, and per storage level.
//
// Hooks read the SimClock to timestamp events but never advance it: tracing
// is harness instrumentation, not modeled CPU work, so an instrumented run
// and an uninstrumented one take identical simulated time.
#ifndef SLEDS_SRC_OBS_OBSERVER_H_
#define SLEDS_SRC_OBS_OBSERVER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sled {

// The instrumented syscalls. Each has one latency histogram,
// "syscall.<SyscallName>", and tags its trace records with that name.
enum class Syscall : uint8_t {
  kOpen,
  kCreat,
  kClose,
  kRead,
  kMmapRead,
  kProgInstall,
  kProgRun,
  kWrite,
  kLseek,
  kStat,
  kFstat,
  kReaddir,
  kUnlink,
  kFtruncate,
  kFsync,
  kIoctlSledsFill,
  kIoctlSledsGet,
  kIoctlSledsLock,
  kIoctlSledsUnlock,
};

inline constexpr auto kSyscallNames = std::to_array<std::string_view>({
    "open",  "creat", "close", "read",    "mmap_read", "prog_install", "prog_run",
    "write", "lseek", "stat",  "fstat",   "readdir",   "unlink",       "ftruncate",
    "fsync", "ioctl_sleds_fill", "ioctl_sleds_get", "ioctl_sleds_lock", "ioctl_sleds_unlock",
});
static_assert(static_cast<size_t>(Syscall::kIoctlSledsUnlock) + 1 == kSyscallNames.size(),
              "one name per syscall");

constexpr std::string_view SyscallName(Syscall call) {
  return kSyscallNames[static_cast<size_t>(call)];
}

class Observer {
 public:
  explicit Observer(const SimClock* clock, size_t trace_capacity = 16384);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  const SimClock* clock() const { return clock_; }

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }

  // Storage-level names, registered by the kernel as sleds_table rows are
  // created; used to label per-level metrics and the iostat table.
  void SetLevelName(int level, std::string name);
  std::string_view LevelName(int level) const;
  int num_levels() const { return static_cast<int>(level_names_.size()); }

  // ---- hooks ----
  void SyscallEnter(int pid, Syscall call);
  void SyscallExit(int pid, Syscall call, Duration latency);
  void PageIn(int pid, uint64_t file, int64_t first_page, int64_t pages, int level,
              Duration device_time);
  void Readahead(int pid, uint64_t file, int64_t first_page, int64_t pages);
  void WritebackQueued(uint64_t file, int64_t page);
  void WritebackFlush(int pid, int64_t pages, int64_t runs, Duration device_time);
  void DeviceTransfer(std::string_view device, bool write, int64_t offset, int64_t nbytes,
                      Duration service_time, bool repositioned);
  // `runs` = SLED segments the scan emitted (residency/level run count).
  void SledScan(int pid, uint64_t file, int64_t pages, int64_t runs);
  void VfsResolve();

  // Frame-table occupancy snapshot (shell `stats`, the scale bench). Fired on
  // demand only: the first gauge creates the JSON "gauges" section, which the
  // figure benches must keep absent for byte-identical exports.
  void CacheGauges(int64_t size_pages, int64_t capacity_pages, int64_t pinned_pages,
                   int64_t in_flight_pages, int64_t dirty_pages, int64_t resident_files);

  // ---- I/O engine hooks (fire only in the async engine modes) ----
  // A request entered a device queue; `depth` is the queue depth after.
  void IoSubmit(int pid, std::string_view queue, uint64_t file, int64_t first_page, int64_t pages,
                bool write, int64_t depth);
  // A merged batch of `parts` requests left the queue for the device.
  void IoDispatch(std::string_view queue, int64_t pages, int64_t parts, int64_t depth,
                  Duration service_time);
  // A process blocked until an in-flight page arrived.
  void IoWait(int pid, uint64_t file, Duration waited);

  // ---- error-path hooks (fire only under an active fault plan) ----
  // A device rejected a transfer (fault plan said no).
  void DeviceError(std::string_view device, bool write, Err error);
  // The kernel re-issued a failed store transfer; `attempt` counts from 1.
  void IoRetry(int pid, uint64_t file, int attempt, Err error);
  // A writeback run failed and its pages were re-queued (or, past the
  // attempt cap, counted lost).
  void WritebackError(uint64_t file, int64_t first_page, int64_t pages, bool lost);

  // ---- replication hooks (fire only on a replicated mount) ----
  // A read run failed over to `replica` after better-ranked copies were
  // skipped (stale) or errored.
  void ReplicaDegradedRead(std::string_view fs, int replica, int64_t bytes);
  // A replica write failed: `bytes` on `replica` are stale pending re-sync.
  void ReplicaStale(std::string_view fs, int replica, int64_t bytes);
  // Background recovery re-synced `bytes` onto `replica`.
  void ReplicaRecovery(std::string_view fs, int replica, int64_t bytes);
  // A hedged read was issued to the second-ranked replica; `win` = the hedge
  // beat the straggling primary to the deadline-adjusted finish.
  void ReplicaHedge(std::string_view fs, bool win);

  // ---- completion-program hooks (fire only when programs are used) ----
  // A program was installed on an open file; `kind` is the ProgKind ordinal.
  void ProgInstall(int pid, uint64_t file, int kind);
  // A program chained a dependent read from the completion path (the hop
  // that would have been an app round trip).
  void ProgResubmit(int pid, uint64_t file, int64_t offset, int64_t bytes);
  // A program run finished (or was aborted by its resource bounds).
  void ProgDone(int pid, uint64_t file, int kind, bool aborted, int64_t invocations,
                int64_t resubmits, int64_t bytes_examined);

  // Combined export: the metric registry plus a trace summary block.
  std::string MetricsJson() const;

 private:
  // "level.<id>.<suffix>", using the registered name when present.
  std::string LevelKey(int level, std::string_view suffix) const;
  // A trace tag for `name` that lives as long as this Observer.
  std::string_view TagName(std::string_view name);

  const SimClock* clock_;
  TraceRing trace_;
  MetricRegistry metrics_;
  std::vector<std::string> level_names_;
  // Slots of metrics_ the per-syscall hooks record into, each bound at its
  // key's first record (MetricRegistry::HistogramSlot, CounterSlot).
  std::array<LatencyHistogram*, kSyscallNames.size()> syscall_latency_{};
  int64_t* vfs_resolves_ = nullptr;
  // The names trace tags view: one copy per distinct device, queue,
  // file-system or error tag, in nodes that never move.
  std::set<std::string, std::less<>> tag_names_;
};

}  // namespace sled

#endif  // SLEDS_SRC_OBS_OBSERVER_H_
