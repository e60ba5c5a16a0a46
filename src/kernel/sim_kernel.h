// SimKernel: the simulated operating system. Owns the clock, the VFS, the
// unified page cache, the writeback queue, the sleds_table, and the syscall
// surface applications run against. This stands in for the paper's modified
// Linux 2.2 kernel; the SLEDs changes live in exactly the places the paper
// put them — the VFS-level page scan and two generic-file ioctls.
#ifndef SLEDS_SRC_KERNEL_SIM_KERNEL_H_
#define SLEDS_SRC_KERNEL_SIM_KERNEL_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/common/result.h"
#include "src/common/sim_time.h"
#include "src/fs/vfs.h"
#include "src/io/io_scheduler.h"
#include "src/kernel/process.h"
#include "src/kernel/sleds_table.h"
#include "src/obs/observer.h"
#include "src/openload/timing_wheel.h"
#include "src/progs/program.h"
#include "src/sleds/sled.h"

namespace sled {

// CPU charges for kernel entry and bookkeeping. These keep the "modest CPU
// increases are an acceptable price" trade-off (§5.2) visible: SLED scans and
// extra syscalls cost real (simulated) time.
struct CpuCosts {
  // Per-syscall crossing cost.
  Duration syscall_overhead = Microseconds(4);
  Duration fault_overhead = Microseconds(15);   // per major-fault event
  Duration sled_scan_per_page = Nanoseconds(150);
  Duration mmap_touch_per_page = Nanoseconds(600);  // minor fault / TLB work
  // Completion-program execution (src/progs): one in-kernel dispatch per
  // completion-path invocation, plus a per-page touch while the program
  // examines bytes in place (mmap-class — no user copy, no crossing). These
  // price what a program run *does* cost, so the syscalls it eliminates are
  // an honest win, not an accounting hole.
  Duration prog_invoke_overhead = Nanoseconds(500);
  Duration prog_touch_per_page = Nanoseconds(600);
};

// How page transfers reach the backing devices.
//   kFifoSync  — every page-in is one synchronous device access in arrival
//                order, the paper's Linux 2.2 behavior. The default: all
//                paper-figure benches run (and stay byte-identical) here.
//   kFifoAsync — the event-driven engine with FIFO queues: readahead beyond
//                the demand run and writeback become asynchronous requests
//                that overlap with process CPU time.
//   kElevator  — the engine with C-LOOK device-address ordering and
//                adjacent-request coalescing on each queue.
//   kFromEnv   — resolve from $SLEDS_IO_MODE ("elevator", "fifo_async";
//                anything else, or unset, means kFifoSync).
enum class IoMode { kFromEnv, kFifoSync, kFifoAsync, kElevator };

struct IoEngineConfig {
  IoMode mode = IoMode::kFromEnv;
};

// Kernel-level fault tolerance. Device faults are fail-fast (zero device
// time, see src/device/fault.h), so every simulated cost of failure handling
// is decided here: how often a failed store transfer is re-issued, and how
// writeback retries back off before pages count as lost.
struct FaultToleranceConfig {
  // Immediate re-issues of a failed store transfer before the error escapes
  // to the caller. Applies to kIo (media errors) only; kUnavailable (server
  // down window) fails fast — retrying into a closed window is pointless.
  int max_io_retries = 2;
  // Total attempts for one writeback before its pages count as lost.
  int max_writeback_attempts = 6;
  // Backoff before writeback attempt n+1: backoff << (n-1), capped.
  Duration writeback_backoff = Milliseconds(10);
  Duration writeback_backoff_cap = Seconds(1);
  // SLED latency reported for a level inside a down window, in seconds —
  // large enough that latency-ordered pickers defer it past everything real.
  double unavailable_latency_s = 3600.0;
};

struct KernelConfig {
  PageCacheConfig cache;
  // Primary-memory characteristics: the cost of delivering cached pages to
  // user space, and row 0 of the sleds_table (paper Table 2: 175 ns, 48 MB/s).
  DeviceCharacteristics memory{Nanoseconds(175), 48.0e6, {}};
  // Sequential readahead window, in pages (Linux 2.2 used small windows that
  // grow on sequential access, up to 32 pages / 128 KiB).
  int min_readahead_pages = 4;
  int max_readahead_pages = 32;
  // Dirty pages evicted from the cache queue here and flush in batches,
  // approximating bdflush.
  int writeback_batch_pages = 256;
  // I/O engine selection; the default resolves from the environment and
  // falls back to kFifoSync (no behavior change).
  IoEngineConfig io;
  CpuCosts costs;
  FaultToleranceConfig fault;
  // Capacity of the observability event-trace ring (events). Tracing is
  // harness instrumentation: it records simulated timestamps but costs zero
  // simulated time.
  int trace_events = 16384;
};

enum class Whence { kSet, kCur, kEnd };

struct KernelStats {
  int64_t pages_paged_in = 0;
  int64_t pages_written_back = 0;
  int64_t readahead_pages = 0;  // pages fetched beyond the demand page
  int64_t io_errors = 0;        // store transfers that failed past all retries
  int64_t io_retries = 0;       // immediate re-issues of failed transfers
  int64_t writeback_retries = 0;  // writeback runs re-queued after a failure
  int64_t writeback_lost = 0;     // dirty pages dropped past the attempt cap
};

class SimKernel {
 public:
  explicit SimKernel(KernelConfig config);

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // Mount a file system and register its storage levels in the sleds_table.
  Result<uint32_t> Mount(std::string path, std::unique_ptr<FileSystem> fs);

  Process& CreateProcess(std::string name);

  // ---- syscalls ----
  Result<int> Open(Process& p, std::string_view path);
  // Open with O_CREAT|O_TRUNC semantics.
  Result<int> Create(Process& p, std::string_view path);
  Result<void> Close(Process& p, int fd);
  Result<int64_t> Read(Process& p, int fd, std::span<char> dst);
  // mmap-style access: fault in the pages of [offset, offset+length) exactly
  // as Read would (demand paging, readahead, fault accounting) but return a
  // zero-copy view instead of copying to a user buffer — no per-byte copy
  // charge, only a small per-page touch cost. This is the "mmap-friendly
  // SLEDs library" path the paper projects would reduce the CPU penalty
  // (§5.2). The view is clamped at EOF and is invalidated by any operation
  // that changes the file's size.
  Result<std::string_view> MmapRead(Process& p, int fd, int64_t offset, int64_t length);
  Result<int64_t> Write(Process& p, int fd, std::span<const char> src);
  Result<int64_t> Lseek(Process& p, int fd, int64_t offset, Whence whence);
  Result<InodeAttr> Stat(Process& p, std::string_view path);
  Result<InodeAttr> Fstat(Process& p, int fd);
  Result<std::vector<DirEntry>> ReadDir(Process& p, std::string_view path);
  Result<void> Unlink(Process& p, std::string_view path);
  Result<void> Ftruncate(Process& p, int fd, int64_t size);
  Result<void> Fsync(Process& p, int fd);

  // ---- SLEDs ioctls (paper §4.1) ----
  // FSLEDS_FILL: install measured characteristics for a storage level.
  Result<void> IoctlSledsFill(Process& p, int level, DeviceCharacteristics chars);
  // FSLEDS_GET: scan the open file's pages and return its SLED vector. The
  // scan walks the page cache's residency index and the file system's level
  // runs, so its wall-clock cost is O(runs); the *simulated* CPU charge stays
  // sled_scan_per_page * pages scanned, exactly as the paper's per-page VFS
  // scan pays.
  // `route_rank` is forwarded to FileSystem::RouteLevelOf so replicated
  // stores advertise the copy that minimizes the caller's ranking statistic;
  // the default (kMean) leaves every single-copy file system untouched.
  Result<SledVector> IoctlSledsGet(Process& p, int fd, RankBy route_rank = RankBy::kMean);
  // Ranged FSLEDS_GET: scan only the pages overlapping [offset,
  // offset+length). Charges sled_scan_per_page per page actually scanned —
  // this is what lets SledsPicker::Refresh() re-fetch just the not-yet-
  // consumed part of its plan instead of re-paying for the whole file.
  Result<SledVector> IoctlSledsGet(Process& p, int fd, int64_t offset, int64_t length,
                                   RankBy route_rank = RankBy::kMean);
  // FSLEDS_LOCK / FSLEDS_UNLOCK (paper §3.4's proposed lock/reservation
  // mechanism): pin the *currently resident* pages of [offset,
  // offset+length) so eviction cannot invalidate the low-latency SLEDs an
  // application just planned around. Returns the number of pages pinned.
  // The kernel bounds total pins to half the cache; locks auto-release on
  // Close. Unlock releases this descriptor's pins in the range (or all,
  // with length < 0); both reject a negative offset and an empty range with
  // kInval.
  Result<int64_t> IoctlSledsLock(Process& p, int fd, int64_t offset, int64_t length);
  Result<int64_t> IoctlSledsUnlock(Process& p, int fd, int64_t offset, int64_t length);

  // ---- completion-path storage programs (src/progs) ----
  // Install `spec` on the open file; replaces the descriptor's previous
  // program, auto-uninstalls on Close. Validates the sandbox bounds (pattern
  // size, bin count, limits) and returns the program handle.
  Result<int64_t> InstallProgram(Process& p, int fd, const ProgSpec& spec);
  // Execute the descriptor's installed program to completion inside ONE
  // syscall. The kernel faults chunks in exactly as Read/MmapRead would
  // (same readahead planning, engine submission, and replica routing), hands
  // each completed chunk to the program in place (no user copy), and acts on
  // its verdict: feed the next planned chunk, chain a program-chosen read
  // (kSeek — the hop that replaces an app round trip), or finish — early
  // exits cancel the readahead already queued past the match. A program that
  // exhausts its step or resubmit budget is aborted (status in the result);
  // the kernel and the file stay fully consistent either way.
  Result<ProgResult> RunProgram(Process& p, int fd);

  // Charge user-level CPU work (application processing loops) to a process.
  // Keeps app compute on the same virtual clock as kernel work.
  void ChargeAppCpu(Process& p, Duration d) { ChargeCpu(p, d); }

  // ---- non-syscall control (test/experiment harness) ----
  SimClock& clock() { return clock_; }
  Vfs& vfs() { return vfs_; }
  PageCache& cache() { return cache_; }
  const SledsTable& sleds_table() const { return sleds_table_; }
  const KernelStats& stats() const { return stats_; }
  const KernelConfig& config() const { return config_; }
  // The observability subsystem: event trace + metric registry covering every
  // syscall, page-in, writeback, SLED scan, and raw device transfer.
  Observer& obs() { return obs_; }
  const Observer& obs() const { return obs_; }
  // Publish the frame-table occupancy gauges to the metric registry. On
  // demand only (shell `stats`, scale bench): the first gauge creates the
  // JSON "gauges" section the figure-bench exports must not contain.
  void PublishCacheGauges() {
    obs_.CacheGauges(cache_.size_pages(), cache_.capacity_pages(), cache_.pinned_pages(),
                     cache_.in_flight_pages(),
                     static_cast<int64_t>(cache_.AllDirtyPages().size()),
                     cache_.resident_file_count());
  }
  // The resolved I/O mode (kFromEnv is resolved at construction).
  IoMode io_mode() const { return io_mode_; }
  // The event-driven engine's scheduler; queues exist only in async modes.
  const IoScheduler& io_scheduler() const { return scheduler_; }

  // Drop every clean page and discard the writeback queue after flushing.
  // (Cold-cache experiment setup.)
  void DropCaches();
  // Flush all dirty state; returns device time spent (charged to the clock
  // but no process).
  Duration FlushAllDirty();
  // Give every mounted file system one pass of deferred background work
  // (replica re-sync after an outage window). Device time advances the clock
  // but is charged to no process, like a background flush.
  Duration RunMaintenance();

 private:
  // RAII syscall bracket: counts the call, charges entry overhead, and
  // records enter/exit trace events plus a per-syscall latency sample
  // covering everything charged while in the kernel.
  class SyscallScope;

  Result<OpenFile*> FdOf(Process& p, int fd);
  void ChargeCpu(Process& p, Duration d);
  void ChargeIo(Process& p, Duration d);

  // The one demand-paging loop, shared by Read, MmapRead and RunProgram so
  // every access path pays exactly what the page scan advertised. For each
  // page of [first, last]: wait out an in-flight read, touch the page (a
  // minor fault) or, on a miss, plan the readahead run starting there
  // (PlanReadaheadRun grows the descriptor's window on a sequential miss and
  // resets it on a jump), page it in, and move the readahead bookmark to the
  // end of the run actually requested; then charge `charge(page)` of CPU to
  // `p` — the caller's per-page copy or touch cost. Every page-in, Write's
  // read-modify-write included, goes through PageInRun, which picks the
  // synchronous PageIn (one store transfer; evicted dirty pages spill to the
  // writeback queue) or the engine's EnginePageIn (demand pages in
  // cache-bounded chunks, then an asynchronous readahead tail trimmed to the
  // in-flight budget). Both return the run length they requested.
  template <typename Charge>
  Result<void> FaultRange(Process& p, OpenFile& of, int64_t first, int64_t last,
                          int64_t file_pages, Charge charge);
  int64_t PlanReadaheadRun(OpenFile& of, int64_t page, int64_t file_pages);
  Result<int64_t> PageInRun(Process& p, const OpenFile& of, int64_t page, int64_t run,
                            int64_t demand);
  Result<int64_t> PageIn(Process& p, const OpenFile& of, int64_t first_page, int64_t count,
                         int64_t demand_pages);
  Result<int64_t> EnginePageIn(Process& p, const OpenFile& of, int64_t page, int64_t run,
                               int64_t demand);

  // ---- event-driven I/O engine (async modes only) ----
  bool engine_on() const { return io_mode_ != IoMode::kFifoSync; }
  // Completion callback for every dispatched request part: records write
  // completion times, claims cache frames for read pages (flagged in-flight
  // until the clock reaches `done`), and schedules their arrivals.
  void CompleteIo(const IoRequest& part, TimePoint done, bool ok);
  // Enqueue a transfer of pages [first, first+count) of `fid`; returns the
  // request id, or 0 when the file system (or its queue) is gone. Reads are
  // tracked per page in `inflight_`; writes need no tracking: contents
  // already live in the FS content plane, the request models device timing.
  int64_t SubmitIo(int pid, IoOp op, FileId fid, int64_t first, int64_t count);
  // Block `p` until `key` has arrived: force-dispatch its request if still
  // queued, then advance the clock to the arrival time, charging the wait to
  // the process's I/O account. No-op if the page is not in flight.
  void AwaitPage(Process& p, PageKey key);
  // Clear in-flight flags for every arrival at or before the current clock.
  void HarvestArrivals();
  // Drop queued requests and in-flight tracking for pages >= first_page of
  // the file (truncate/unlink).
  void CancelFileIo(FileId fid, int64_t first_page);

  // Shared FSLEDS_GET body: charge the scan, build the SLED vector for pages
  // [first_page, end_page) of the file, and record the scan event.
  Result<SledVector> BuildSleds(Process& p, const OpenFile& of, int64_t first_page,
                                int64_t end_page, int64_t size, RankBy route_rank);

  // One store transfer with the kernel's immediate-retry policy: re-issues on
  // kIo up to fault.max_io_retries times (each failed attempt is fail-fast at
  // the device, so retries cost zero simulated time), then maps the final
  // error to its syscall-boundary code (kUnavailable -> kTimedOut). Shared by
  // the synchronous page-in path, the engine dispatch callback, and every
  // writeback flush so both I/O modes retry identically.
  Result<Duration> StoreTransfer(int pid, uint64_t file, FileSystem* fs, InodeNum ino,
                                 int64_t first, int64_t count, bool write);
  // Capped exponential backoff before writeback attempt `attempt` (>= 1).
  Duration WritebackBackoff(int attempt) const;
  // A background (non-fsync) writeback request failed at dispatch: resubmit
  // it with backoff, or count its pages lost past the attempt cap.
  void HandleWritebackFailure(const IoRequest& part, TimePoint done);

  // Writeback machinery. `force` flushes entries whose backoff deadline is
  // still in the future (shutdown drain).
  void QueueWriteback(Process* p, PageKey key);
  Result<Duration> FlushWriteback(Process* p, bool force = false);

  FileSystem* FsOf(const OpenFile& of);

  // A read request's life, per page: submitted (queued, `dispatched` false),
  // dispatched (frame claimed in the cache, flagged in-flight, data arrives
  // at `ready_at`), then harvested once the clock reaches `ready_at`.
  struct InFlightPage {
    int64_t request_id = 0;
    uint32_t fs_id = 0;
    TimePoint ready_at;
    bool dispatched = false;
  };
  // One queued dirty page (synchronous-writeback mode). A failed flush
  // re-queues its pages with attempts+1 and a backoff deadline; pages past
  // fault.max_writeback_attempts count as lost.
  struct WritebackEntry {
    PageKey key;
    int attempts = 0;
    TimePoint not_before;
  };
  // Completion record Fsync collects while its sink is armed. The request is
  // kept so failures can be handled after the sink is disarmed: Fsync's own
  // requests re-dirty their pages; unrelated background writebacks that
  // completed inside the window get the normal resubmit treatment.
  struct WriteDone {
    TimePoint done;
    bool ok = true;
    IoRequest req;
  };
  KernelConfig config_;
  IoMode io_mode_ = IoMode::kFifoSync;
  SimClock clock_;
  Observer obs_;
  Vfs vfs_;
  PageCache cache_;
  SledsTable sleds_table_;
  IoScheduler scheduler_;
  KernelStats stats_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<WritebackEntry> writeback_queue_;
  std::unordered_map<PageKey, InFlightPage, PageKeyHash> inflight_;
  // Pending page arrivals (completion time -> page), on the hierarchical
  // timing wheel shared with the open-loop engine. Completions are enqueued
  // at or after the previous harvest time and harvested per-key with
  // order-independent actions, so replacing the old binary heap keeps every
  // simulated outcome byte-identical while making enqueue/harvest O(1)
  // amortized instead of O(log n).
  TimingWheel<PageKey> arrivals_;
  // Armed by Fsync to collect its requests' completions (time + success);
  // while armed, CompleteIo leaves write-failure handling to Fsync instead of
  // auto-resubmitting.
  std::unordered_map<int64_t, WriteDone>* write_done_sink_ = nullptr;
  // Error code of the most recent failed engine dispatch, already mapped to
  // its syscall-boundary code; EnginePageIn reports it when an awaited page
  // never arrived. kOk when no dispatch has failed since the last report.
  Err last_io_error_ = Err::kOk;
  // Installed completion programs, keyed by handle; OpenFile::prog points
  // here and Close uninstalls.
  std::unordered_map<int64_t, CompletionProgram> progs_;
  int64_t next_prog_id_ = 1;
  int next_pid_ = 1;
};

}  // namespace sled

#endif  // SLEDS_SRC_KERNEL_SIM_KERNEL_H_
