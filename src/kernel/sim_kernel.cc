#include "src/kernel/sim_kernel.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <unordered_set>

#include <cmath>

#include "src/common/log.h"
#include "src/common/units.h"

namespace sled {
namespace {

constexpr uint64_t kInoMask = (1ull << 40) - 1;

uint32_t FsIdOfFid(FileId fid) { return static_cast<uint32_t>(fid >> 40); }
InodeNum InoOfFid(FileId fid) { return static_cast<InodeNum>(fid & kInoMask); }

// Error-code mapping at the syscall boundary: kUnavailable is the storage
// stack's internal "server down window" code; user space sees ETIMEDOUT,
// like an NFS hard-mount interruption. Everything else passes through.
Err ToSyscallErr(Err e) { return e == Err::kUnavailable ? Err::kTimedOut : e; }

// A byte range [offset, offset + length) the ranged ioctls accept: both ends
// non-negative and the end within kMaxFileBytes, checked without overflow.
bool RangeInBounds(int64_t offset, int64_t length) {
  int64_t end = 0;
  return offset >= 0 && length >= 0 && !__builtin_add_overflow(offset, length, &end) &&
         end <= kMaxFileBytes;
}

IoMode ResolveIoMode(IoMode mode) {
  if (mode != IoMode::kFromEnv) {
    return mode;
  }
  // Resolved once per process (thread-safe magic static): shard workers
  // construct kernels concurrently, and libc's environment is the one piece
  // of process-global state those constructions would otherwise all touch.
  // Caching also guarantees every shard resolves the same mode even if the
  // environment were mutated mid-run.
  static const IoMode env_mode = [] {
    const char* env = std::getenv("SLEDS_IO_MODE");
    if (env == nullptr) {
      return IoMode::kFifoSync;
    }
    const std::string_view v(env);
    if (v == "elevator" || v == "clook") {
      return IoMode::kElevator;
    }
    if (v == "fifo_async" || v == "fifo") {
      return IoMode::kFifoAsync;
    }
    return IoMode::kFifoSync;
  }();
  return env_mode;
}

}  // namespace

SimKernel::SimKernel(KernelConfig config)
    : config_(config),
      io_mode_(ResolveIoMode(config.io.mode)),
      obs_(&clock_, static_cast<size_t>(std::max(1, config.trace_events))),
      cache_(config.cache),
      sleds_table_(config.memory) {
  SLED_CHECK(config_.min_readahead_pages >= 1, "readahead minimum must be >= 1");
  SLED_CHECK(config_.max_readahead_pages >= config_.min_readahead_pages,
             "readahead maximum below minimum");
  obs_.SetLevelName(kMemoryLevel, "memory");
  vfs_.AttachObserver(&obs_);
}

Result<uint32_t> SimKernel::Mount(std::string path, std::unique_ptr<FileSystem> fs) {
  FileSystem* raw = fs.get();
  SLED_ASSIGN_OR_RETURN(uint32_t fs_id, vfs_.Mount(std::move(path), std::move(fs)));
  const std::vector<StorageLevelInfo> levels = raw->Levels();
  for (size_t i = 0; i < levels.size(); ++i) {
    const int global = sleds_table_.RegisterLevel(levels[i].name, levels[i].nominal, fs_id,
                                                  static_cast<int>(i));
    obs_.SetLevelName(global, levels[i].name);
  }
  if (engine_on()) {
    DeviceQueueConfig qc;
    qc.policy = io_mode_ == IoMode::kElevator ? IoPolicy::kClook : IoPolicy::kFifo;
    StorageDevice* primary = raw->PrimaryDevice();
    std::string qname = primary != nullptr ? std::string(primary->name()) : raw->name();
    scheduler_.AttachQueue(
        fs_id, std::move(qname), qc,
        // Dispatch: one merged batch = one store access. The returned service
        // time becomes the queue's busy span; the clock is not advanced here —
        // waiting processes are charged at AwaitPage.
        [this, fs_id, raw](const IoRequest& merged, int parts) -> Result<Duration> {
          int level = -1;
          if (merged.op == IoOp::kRead) {
            // Level attribution before the read: an HSM recall re-stages the
            // file as a side effect, exactly as in the synchronous path.
            if (auto g = sleds_table_.GlobalLevelOf(fs_id, raw->LevelOf(merged.ino,
                                                                        merged.first_page));
                g.ok()) {
              level = g.value();
            }
          }
          const Result<Duration> t =
              StoreTransfer(merged.pid, merged.file, raw, merged.ino, merged.first_page,
                            merged.count, merged.op == IoOp::kWrite);
          if (!t.ok()) {
            last_io_error_ = t.error();  // for EnginePageIn / Fsync to report
          }
          const DeviceQueue* q = scheduler_.queue(fs_id);
          // Not an error swallow: the dispatch event is pure instrumentation,
          // and a failed (fail-fast) dispatch really did cost zero device
          // time. The error itself propagates through the return below.
          obs_.IoDispatch(q->name(), merged.count, parts, q->depth(),
                          t.ok() ? t.value() : Duration());
          if (merged.op == IoOp::kRead && t.ok()) {
            obs_.PageIn(merged.pid, merged.file, merged.first_page, merged.count, level,
                        t.value());
          }
          return t;
        },
        [this](const IoRequest& part, TimePoint done, bool ok) {
          CompleteIo(part, done, ok);
        });
  }
  return fs_id;
}

void SimKernel::CompleteIo(const IoRequest& part, TimePoint done, bool ok) {
  if (part.op == IoOp::kWrite) {
    if (ok) {
      stats_.pages_written_back += part.count;
    }
    if (write_done_sink_ != nullptr) {
      // Fsync is force-dispatching: it owns failure handling for this window
      // (re-dirty + error to the caller, or deferred resubmit for unrelated
      // background writes), so nothing more happens here.
      (*write_done_sink_)[part.id] = WriteDone{done, ok, part};
      return;
    }
    if (!ok) {
      HandleWritebackFailure(part, done);
    }
    return;
  }
  for (int64_t q = part.first_page; q < part.end_page(); ++q) {
    const PageKey key{part.file, q};
    auto it = inflight_.find(key);
    if (it == inflight_.end() || it->second.request_id != part.id) {
      continue;  // canceled (truncate/unlink) while queued or in service
    }
    if (!ok) {
      inflight_.erase(it);
      continue;
    }
    it->second.dispatched = true;
    it->second.ready_at = done;
    // Claim the frame now (unless already resident), flagged in-flight until
    // the clock reaches `done`; a dirty page pushed out spills to
    // (asynchronous) writeback.
    auto evicted = cache_.InsertIfAbsent(key, /*dirty=*/false, /*in_flight=*/true);
    if (evicted.has_value() && evicted->dirty) {
      QueueWriteback(nullptr, evicted->key);
    }
    arrivals_.push({done, key});
  }
  if (ok) {
    stats_.pages_paged_in += part.count;
  }
}

// Records syscall entry on construction and the exit event (with the full
// in-kernel latency, CPU charges plus I/O stalls) on destruction, so every
// return path of every syscall is covered.
class SimKernel::SyscallScope {
 public:
  SyscallScope(SimKernel& k, Process& p, Syscall call)
      : k_(k), p_(p), call_(call), entered_(k.clock_.Now()) {
    ++p_.stats().syscalls;
    k_.obs_.SyscallEnter(p_.pid(), call_);
    k_.ChargeCpu(p_, k_.config_.costs.syscall_overhead);
    if (k_.engine_on()) {
      // Kernel entry is where elapsed CPU time becomes visible to the I/O
      // engine: replay device progress up to now and absorb any arrivals.
      k_.scheduler_.CatchUp(k_.clock_.Now());
      k_.HarvestArrivals();
    }
  }
  ~SyscallScope() { k_.obs_.SyscallExit(p_.pid(), call_, k_.clock_.Now() - entered_); }

  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;

 private:
  SimKernel& k_;
  Process& p_;
  Syscall call_;
  TimePoint entered_;
};

Process& SimKernel::CreateProcess(std::string name) {
  processes_.push_back(std::make_unique<Process>(next_pid_++, std::move(name)));
  return *processes_.back();
}

void SimKernel::ChargeCpu(Process& p, Duration d) {
  p.stats().cpu_time += d;
  clock_.Advance(d);
}

void SimKernel::ChargeIo(Process& p, Duration d) {
  p.stats().io_time += d;
  clock_.Advance(d);
}

void SimKernel::ChargeBackground(Duration d) {
  stats_.background_io_time += d;
  clock_.Advance(d);
}

void SimKernel::WaitUntil(Process& p, FileId file, TimePoint ready) {
  const TimePoint now = clock_.Now();
  if (now < ready) {
    const Duration wait = ready - now;
    ChargeIo(p, wait);
    ++p.stats().io_waits;
    obs_.IoWait(p.pid(), file, wait);
  }
}

Result<OpenFile*> SimKernel::FdOf(Process& p, int fd) {
  OpenFile* of = p.FindFd(fd);
  if (of == nullptr) {
    return Err::kBadF;
  }
  return of;
}

FileSystem* SimKernel::FsOf(const OpenFile& of) { return vfs_.FsById(of.fs_id); }

Result<Duration> SimKernel::StoreTransfer(int pid, uint64_t file, FileSystem* fs, InodeNum ino,
                                          int64_t first, int64_t count, bool write) {
  auto issue = [&]() {
    return write ? fs->WritePagesToStore(ino, first, count)
                 : fs->ReadPagesFromStore(ino, first, count);
  };
  Result<Duration> t = issue();
  for (int attempt = 1; !t.ok() && t.error() == Err::kIo && attempt <= config_.fault.max_io_retries;
       ++attempt) {
    ++stats_.io_retries;
    obs_.IoRetry(pid, file, attempt, t.error());
    t = issue();
  }
  if (!t.ok()) {
    ++stats_.io_errors;
    return ToSyscallErr(t.error());
  }
  return t;
}

Duration SimKernel::WritebackBackoff(int attempt) const {
  const int shift = std::min(attempt - 1, 20);  // 2^20 x base is past any sane cap
  const Duration b = config_.fault.writeback_backoff * (int64_t{1} << shift);
  return std::min(b, config_.fault.writeback_backoff_cap);
}

void SimKernel::HandleWritebackFailure(const IoRequest& part, TimePoint done) {
  // The pages' frames are already gone (they were evicted), so re-queue the
  // request itself with capped exponential backoff; past the attempt cap the
  // pages count as lost.
  const int next_attempt = part.attempts + 1;
  if (next_attempt >= config_.fault.max_writeback_attempts) {
    stats_.writeback_lost += part.count;
    obs_.WritebackError(part.file, part.first_page, part.count, /*lost=*/true);
    return;
  }
  ++stats_.writeback_retries;
  obs_.WritebackError(part.file, part.first_page, part.count, /*lost=*/false);
  IoRequest retry = part;
  retry.id = scheduler_.AllocateId();
  retry.attempts = next_attempt;
  // A future submit time is the backoff: the queue's EarliestSubmit causality
  // delays the retry's dispatch until the deadline passes.
  retry.submit = done + WritebackBackoff(next_attempt);
  scheduler_.Submit(FsIdOfFid(part.file), retry);
}

Result<int> SimKernel::Open(Process& p, std::string_view path) {
  SyscallScope sys(*this, p, Syscall::kOpen);
  SLED_ASSIGN_OR_RETURN(Vfs::Resolved r, vfs_.Resolve(path));
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, r.fs->GetAttr(r.ino));
  if (attr.is_dir) {
    return Err::kIsDir;
  }
  OpenFile of;
  of.fs_id = r.fs_id;
  of.ino = r.ino;
  of.fid = Vfs::MakeFileId(r.fs_id, r.ino);
  return p.InstallFd(of);
}

Result<int> SimKernel::Create(Process& p, std::string_view path) {
  SyscallScope sys(*this, p, Syscall::kCreat);
  Vfs::Resolved r;
  auto existing = vfs_.Resolve(path);
  if (existing.ok()) {
    r = existing.value();
    SLED_ASSIGN_OR_RETURN(InodeAttr attr, r.fs->GetAttr(r.ino));
    if (attr.is_dir) {
      return Err::kIsDir;
    }
    // O_TRUNC: drop contents, cached pages, and any I/O still in the queues.
    const FileId fid = Vfs::MakeFileId(r.fs_id, r.ino);
    CancelFileIo(fid, 0);
    cache_.RemoveFile(fid);
    std::erase_if(writeback_queue_,
                  [fid](const WritebackEntry& e) { return e.key.file == fid; });
    SLED_RETURN_IF_ERROR(r.fs->Truncate(r.ino, 0));
  } else {
    SLED_ASSIGN_OR_RETURN(r, vfs_.CreateFile(path));
  }
  OpenFile of;
  of.fs_id = r.fs_id;
  of.ino = r.ino;
  of.fid = Vfs::MakeFileId(r.fs_id, r.ino);
  return p.InstallFd(of);
}

Result<void> SimKernel::Close(Process& p, int fd) {
  SyscallScope sys(*this, p, Syscall::kClose);
  OpenFile* of = p.FindFd(fd);
  if (of == nullptr) {
    return Err::kBadF;
  }
  // Release any SLED locks this descriptor held.
  for (int64_t page : of->locked_pages) {
    cache_.Unpin({of->fid, page});
  }
  // Uninstall the descriptor's completion program, if any.
  if (of->prog >= 0) {
    progs_.erase(of->prog);
  }
  p.RemoveFd(fd);
  return Result<void>::Ok();
}

Result<int64_t> SimKernel::PageInRun(Process& p, const OpenFile& of, int64_t page, int64_t run,
                                     int64_t demand) {
  return engine_on() ? EnginePageIn(p, of, page, run, demand) : PageIn(p, of, page, run, demand);
}

Result<int64_t> SimKernel::PageIn(Process& p, const OpenFile& of, int64_t first_page,
                                  int64_t count, int64_t demand_pages) {
  FileSystem* fs = FsOf(of);
  // Attribute the transfer to the level holding the data *before* the read —
  // an HSM recall, for example, re-stages the file as a side effect.
  int level = -1;
  if (auto global = sleds_table_.GlobalLevelOf(of.fs_id, fs->LevelOf(of.ino, first_page));
      global.ok()) {
    level = global.value();
  }
  // Fault bookkeeping is charged *before* the store transfer, mirroring the
  // engine path (which charges it before submit): a transfer that fails after
  // all retries then costs the same simulated time in every I/O mode.
  ChargeCpu(p, config_.costs.fault_overhead);
  SLED_ASSIGN_OR_RETURN(Duration t,
                        StoreTransfer(p.pid(), of.fid, fs, of.ino, first_page, count,
                                      /*write=*/false));
  ChargeIo(p, t);
  p.stats().major_faults += count;
  stats_.pages_paged_in += count;
  stats_.readahead_pages += count - demand_pages;
  obs_.PageIn(p.pid(), of.fid, first_page, count, level, t);
  if (count > demand_pages) {
    obs_.Readahead(p.pid(), of.fid, first_page + demand_pages, count - demand_pages);
  }
  for (int64_t q = first_page; q < first_page + count; ++q) {
    auto evicted = cache_.Insert({of.fid, q}, /*dirty=*/false);
    if (evicted.has_value() && evicted->dirty) {
      QueueWriteback(&p, evicted->key);
    }
  }
  return count;
}

int64_t SimKernel::SubmitIo(int pid, IoOp op, FileId fid, int64_t first, int64_t count) {
  const uint32_t fs_id = FsIdOfFid(fid);
  FileSystem* fs = vfs_.FsById(fs_id);
  if (fs == nullptr || !scheduler_.HasQueue(fs_id)) {
    return 0;
  }
  const InodeNum ino = InoOfFid(fid);
  IoRequest req;
  req.id = scheduler_.AllocateId();
  req.op = op;
  req.file = fid;
  req.ino = static_cast<int64_t>(ino);
  req.first_page = first;
  req.count = count;
  req.device_addr = fs->DeviceAddressOf(ino, first);
  const int64_t last_addr = fs->DeviceAddressOf(ino, first + count - 1);
  req.device_end_addr = last_addr >= 0 ? last_addr + kPageSize : -1;
  req.submit = clock_.Now();
  req.pid = pid;
  if (op == IoOp::kRead) {
    // Tracked before Submit: the queue may dispatch and complete it inline.
    for (int64_t q = first; q < first + count; ++q) {
      inflight_[{fid, q}] = InFlightPage{req.id, fs_id, TimePoint(), false};
    }
  }
  const DeviceQueue* dq = scheduler_.queue(fs_id);
  obs_.IoSubmit(pid, dq->name(), fid, first, count, op == IoOp::kWrite, dq->depth() + 1);
  scheduler_.Submit(fs_id, req);
  return req.id;
}

void SimKernel::AwaitPage(Process& p, PageKey key) {
  const TimePoint now = clock_.Now();
  scheduler_.CatchUp(now);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    HarvestArrivals();
    return;
  }
  if (!it->second.dispatched) {
    // Still queued: the device must service it (and everything the policy
    // puts ahead of it) before the process can continue.
    scheduler_.ForceDispatch(it->second.fs_id, it->second.request_id, now);
    it = inflight_.find(key);
    if (it == inflight_.end() || !it->second.dispatched) {
      HarvestArrivals();
      return;  // request failed at the device; caller sees the missing page
    }
  }
  WaitUntil(p, key.file, it->second.ready_at);
  HarvestArrivals();
}

void SimKernel::HarvestArrivals() {
  const TimePoint now = clock_.Now();
  while (!arrivals_.empty() && !(now < arrivals_.top().at)) {
    const PageKey key = arrivals_.top().key;
    arrivals_.pop();
    cache_.MarkArrived(key);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second.dispatched && !(now < it->second.ready_at)) {
      inflight_.erase(it);
    }
  }
}

Result<int64_t> SimKernel::EnginePageIn(Process& p, const OpenFile& of, int64_t page,
                                        int64_t run, int64_t demand) {
  // The planned run must not re-request pages with an outstanding request:
  // clip at the first such page. (`page` itself missed and is not in flight.)
  for (int64_t q = page + 1; q < page + run; ++q) {
    if (inflight_.contains({of.fid, q})) {
      run = q - page;
      break;
    }
  }
  demand = std::min(demand, run);
  ChargeCpu(p, config_.costs.fault_overhead);
  // Demand pages: submit in cache-bounded chunks and wait for each, so a run
  // larger than the cache never claims more in-flight frames than the budget.
  const int64_t budget = std::max<int64_t>(1, cache_.capacity_pages() / 4);
  int64_t submitted = 0;
  while (submitted < demand) {
    const int64_t chunk = std::min(demand - submitted, budget);
    SubmitIo(p.pid(), IoOp::kRead, of.fid, page + submitted, chunk);
    p.stats().major_faults += chunk;
    AwaitPage(p, {of.fid, page + submitted});
    for (int64_t q = page + submitted; q < page + submitted + chunk; ++q) {
      if (!cache_.Contains({of.fid, q})) {
        // The device read failed past all retries; report the code the
        // dispatch recorded (already syscall-mapped), kIo if none.
        const Err e = last_io_error_ != Err::kOk ? last_io_error_ : Err::kIo;
        last_io_error_ = Err::kOk;
        return e;
      }
    }
    submitted += chunk;
  }
  // Readahead tail: purely asynchronous, trimmed to the in-flight budget so
  // speculation can never fill the cache with unevictable frames.
  int64_t ra = run - demand;
  const int64_t outstanding = cache_.in_flight_pages() + scheduler_.PendingPages(IoOp::kRead);
  ra = std::min(ra, std::max<int64_t>(0, budget - outstanding));
  if (ra > 0) {
    SubmitIo(p.pid(), IoOp::kRead, of.fid, page + demand, ra);
    p.stats().major_faults += ra;
    stats_.readahead_pages += ra;
    obs_.Readahead(p.pid(), of.fid, page + demand, ra);
  }
  return demand + ra;
}

void SimKernel::CancelFileIo(FileId fid, int64_t first_page) {
  if (!engine_on()) {
    return;
  }
  scheduler_.CancelMatching([fid, first_page](const IoRequest& r) {
    return r.file == fid && r.first_page >= first_page;
  });
  // A dispatched read already holds its frame, flagged in flight until it
  // lands: keep its entry so readers still await it; HarvestArrivals drops
  // it on arrival.
  std::erase_if(inflight_, [fid, first_page](const auto& kv) {
    return kv.first.file == fid && kv.first.page >= first_page && !kv.second.dispatched;
  });
}

int64_t SimKernel::PlanReadaheadRun(OpenFile& of, int64_t page, int64_t file_pages) {
  if (page == of.last_demand_page) {
    of.readahead_window =
        std::min(std::max(of.readahead_window, 1) * 2, config_.max_readahead_pages);
  } else {
    of.readahead_window = config_.min_readahead_pages;
  }
  // The run extends to the window edge, EOF, or the next resident page —
  // whichever comes first. `page` itself missed, so no run covers it and the
  // next resident run (if any) starts strictly after `page`.
  int64_t run = std::min<int64_t>(of.readahead_window, file_pages - page);
  if (const auto next = cache_.NextResidentRun(of.fid, page + 1); next.has_value()) {
    run = std::min(run, next->first - page);
  }
  return std::max<int64_t>(run, 1);
}

template <typename Charge>
Result<std::string_view> SimKernel::FaultView(Process& p, OpenFile& of, int64_t offset,
                                              int64_t n, int64_t size, Charge charge) {
  const int64_t file_pages = PagesFor(size);
  const int64_t last = n > 0 ? (offset + n - 1) / kPageSize : -1;
  for (int64_t page = offset / kPageSize; page <= last; ++page) {
    const PageKey key{of.fid, page};
    if (engine_on() && inflight_.contains(key)) {
      AwaitPage(p, key);  // readahead in flight for this page: block until it lands
    }
    if (cache_.Touch(key)) {
      ++p.stats().minor_faults;
    } else {
      // Demand miss: page in the readahead-planned run starting here; the
      // next sequential miss lands where the requested run ends.
      const int64_t run = PlanReadaheadRun(of, page, file_pages);
      SLED_ASSIGN_OR_RETURN(const int64_t fetched,
                            PageInRun(p, of, page, run, std::min(run, last - page + 1)));
      of.last_demand_page = page + fetched;
    }
    ChargeCpu(p, charge(page));
  }
  p.stats().bytes_read += n;
  SLED_ASSIGN_OR_RETURN(std::string_view content, FsOf(of)->ContentView(of.ino));
  return content.substr(static_cast<size_t>(offset), static_cast<size_t>(n));
}

Result<int64_t> SimKernel::Read(Process& p, int fd, std::span<char> dst) {
  SLED_ASSIGN_OR_RETURN(std::string_view view,
                        ReadView(p, fd, static_cast<int64_t>(dst.size())));
  std::copy(view.begin(), view.end(), dst.begin());
  return static_cast<int64_t>(view.size());
}

Result<std::string_view> SimKernel::ReadView(Process& p, int fd, int64_t length) {
  SyscallScope sys(*this, p, Syscall::kRead);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  if (length < 0) {
    return Err::kInval;
  }
  const int64_t size = FsOf(*of)->SizeOf(of->ino);
  const int64_t start = of->offset;
  if (start >= size || length == 0) {
    return std::string_view();
  }
  const int64_t end = start + std::min(length, size - start);
  const Duration mem_latency = SecondsF(config_.memory.latency.ToSeconds());
  const double mem_bw = config_.memory.bandwidth_bps;
  // Each page costs the copy of its consumed bytes to user space, whether or
  // not the host makes that copy.
  auto copy_cost = [&](int64_t page) {
    const int64_t lo = std::max(start, page * kPageSize);
    const int64_t hi = std::min(end, (page + 1) * kPageSize);
    return mem_latency + TransferTime(hi - lo, mem_bw);
  };
  SLED_ASSIGN_OR_RETURN(std::string_view view,
                        FaultView(p, *of, start, end - start, size, copy_cost));
  of->offset = end;
  return view;
}

Result<std::string_view> SimKernel::MmapRead(Process& p, int fd, int64_t offset,
                                             int64_t length) {
  SyscallScope sys(*this, p, Syscall::kMmapRead);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  const int64_t size = FsOf(*of)->SizeOf(of->ino);
  if (offset < 0 || length < 0) {
    return Err::kInval;
  }
  if (offset >= size || length == 0) {
    return std::string_view();
  }
  return FaultView(p, *of, offset, std::min(length, size - offset), size,
                   [&](int64_t) { return config_.costs.mmap_touch_per_page; });
}

Result<int64_t> SimKernel::InstallProgram(Process& p, int fd, const ProgSpec& spec) {
  SyscallScope sys(*this, p, Syscall::kProgInstall);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  SLED_ASSIGN_OR_RETURN(CompletionProgram prog, CompletionProgram::Create(spec));
  if (of->prog >= 0) {
    progs_.erase(of->prog);  // replace the descriptor's previous program
  }
  const int64_t handle = next_prog_id_++;
  progs_.emplace(handle, std::move(prog));
  of->prog = handle;
  obs_.ProgInstall(p.pid(), of->fid, static_cast<int>(spec.kind));
  return handle;
}

Result<ProgResult> SimKernel::RunProgram(Process& p, int fd) {
  SyscallScope sys(*this, p, Syscall::kProgRun);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  auto it = of->prog < 0 ? progs_.end() : progs_.find(of->prog);
  if (it == progs_.end()) {
    return Err::kInval;
  }
  CompletionProgram& prog = it->second;
  const ProgSpec& spec = prog.spec();
  const int64_t size = FsOf(*of)->SizeOf(of->ino);

  // One completed chunk: fault it in (demand paging, readahead, engine
  // submission, and — inside the FS — replica routing, all exactly as a
  // Read would), then run the program over the bytes in place. The program
  // body is priced per invocation plus its app-declared per-byte compute;
  // there is no crossing and no user copy — that is the entire win.
  auto run_chunk = [&](int64_t off, int64_t len) -> Result<CompletionProgram::Action> {
    SLED_ASSIGN_OR_RETURN(std::string_view data,
                          FaultView(p, *of, off, len, size, [&](int64_t) {
                            return config_.costs.prog_touch_per_page;
                          }));
    ChargeCpu(p, config_.costs.prog_invoke_overhead +
                     Nanoseconds(std::llround(spec.step_cost_ns_per_byte *
                                              static_cast<double>(len))));
    return prog.OnComplete(off, data);
  };

  using Action = CompletionProgram::Action;
  Action act = prog.Start(size);
  if (prog.self_driven()) {
    // kChainWalk / kHistogram: every completion names the next read — the
    // chained resubmit that replaces an app round trip per hop.
    while (act.kind == Action::Kind::kSeek) {
      const int64_t off = act.offset;
      const int64_t len = std::min(act.length, size - off);
      SLED_ASSIGN_OR_RETURN(act, run_chunk(off, len));
      if (act.kind == Action::Kind::kSeek) {
        obs_.ProgResubmit(p.pid(), of->fid, act.offset, act.length);
      }
    }
  } else if (size > 0 && act.kind == Action::Kind::kNext) {
    // kFindFirst / kCount: the kernel owns the chunk plan — file order, or
    // for kFindFirst the picker's §4.2 lowest-latency-first order over the
    // file's SLEDs.
    // kFindFirst chunks overlap by needle-1 bytes so a match straddling a
    // chunk boundary is still seen by the chunk it starts in.
    const int64_t overlap =
        spec.kind == ProgKind::kFindFirst
            ? static_cast<int64_t>(spec.pattern.size()) - 1
            : 0;
    std::vector<std::pair<int64_t, int64_t>> plan;
    if (spec.order_by_sleds) {
      SLED_ASSIGN_OR_RETURN(SledVector sleds,
                            BuildSleds(p, *of, 0, PagesFor(size), size, spec.rank_by));
      SortByPickOrder(sleds, spec.rank_by);
      for (const Sled& s : sleds) {
        const int64_t end = std::min(s.offset + s.length, size);
        for (int64_t off = s.offset; off < end; off += spec.chunk_bytes) {
          plan.emplace_back(off, std::min(spec.chunk_bytes, end - off));
        }
      }
    } else {
      for (int64_t off = 0; off < size; off += spec.chunk_bytes) {
        plan.emplace_back(off, std::min(spec.chunk_bytes, size - off));
      }
    }
    for (const auto& [off, nominal] : plan) {
      const int64_t len = std::min(nominal + overlap, size - off);
      SLED_ASSIGN_OR_RETURN(act, run_chunk(off, len));
      if (act.kind != Action::Kind::kNext) {
        break;
      }
    }
    if (act.kind == Action::Kind::kNext) {
      act = prog.OnPlanEnd();
    }
  }

  const ProgResult& r = prog.result();
  if (act.kind == Action::Kind::kDone && act.cancel_pending) {
    // Prune: the program is done with this file, so readahead still queued
    // past the match is pure waste — cancel it before it reaches a device.
    CancelFileIo(of->fid, PagesFor(r.match_offset + 1));
  }
  obs_.ProgDone(p.pid(), of->fid, static_cast<int>(spec.kind),
                r.status != ProgStatus::kOk, r.invocations, r.resubmits, r.bytes_examined);
  return r;
}

Result<int64_t> SimKernel::Write(Process& p, int fd, std::span<const char> src) {
  SyscallScope sys(*this, p, Syscall::kWrite);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  if (src.empty()) {
    return static_cast<int64_t>(0);
  }
  const int64_t old_size = fs->SizeOf(of->ino);
  const int64_t n = static_cast<int64_t>(src.size());
  SLED_ASSIGN_OR_RETURN(int64_t written, fs->WriteBytes(of->ino, of->offset, src));
  SLED_CHECK(written == n, "short content write");

  const int64_t first = of->offset / kPageSize;
  const int64_t last = (of->offset + n - 1) / kPageSize;
  const int64_t write_end = of->offset + n;
  const Duration mem_latency = SecondsF(config_.memory.latency.ToSeconds());
  const double mem_bw = config_.memory.bandwidth_bps;
  for (int64_t page = first; page <= last; ++page) {
    const PageKey key{of->fid, page};
    const int64_t page_lo = page * kPageSize;
    const int64_t page_hi = (page + 1) * kPageSize;
    const bool full_cover = of->offset <= page_lo && write_end >= page_hi;
    const bool beyond_old_eof = page_lo >= old_size;
    if (engine_on() && inflight_.contains(key)) {
      AwaitPage(p, key);  // overwriting a page whose read is in flight
    }
    PageCache::Frame* frame = cache_.Probe(key);
    if (frame == nullptr && !full_cover && !beyond_old_eof) {
      // Read-modify-write of a non-resident partial page.
      SLED_RETURN_IF_ERROR(PageInRun(p, *of, page, 1, 1));
      frame = cache_.Probe(key);  // the page-in made it resident
    }
    if (frame != nullptr) {
      cache_.Freshen(frame, /*dirty=*/true);
    } else {
      auto evicted = cache_.Insert(key, /*dirty=*/true);
      if (evicted.has_value() && evicted->dirty) {
        QueueWriteback(&p, evicted->key);
      }
    }
    const int64_t copy_lo = std::max(of->offset, page_lo);
    const int64_t copy_hi = std::min(write_end, page_hi);
    ChargeCpu(p, mem_latency + TransferTime(copy_hi - copy_lo, mem_bw));
  }
  of->offset += n;
  p.stats().bytes_written += n;
  return n;
}

Result<int64_t> SimKernel::Lseek(Process& p, int fd, int64_t offset, Whence whence) {
  SyscallScope sys(*this, p, Syscall::kLseek);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  int64_t base = 0;
  switch (whence) {
    case Whence::kSet:
      base = 0;
      break;
    case Whence::kCur:
      base = of->offset;
      break;
    case Whence::kEnd:
      base = fs->SizeOf(of->ino);
      break;
  }
  int64_t target = 0;
  if (__builtin_add_overflow(base, offset, &target) || target < 0 || target > kMaxFileBytes) {
    return Err::kInval;
  }
  of->offset = target;
  return target;
}

Result<InodeAttr> SimKernel::Stat(Process& p, std::string_view path) {
  SyscallScope sys(*this, p, Syscall::kStat);
  SLED_ASSIGN_OR_RETURN(Vfs::Resolved r, vfs_.Resolve(path));
  return r.fs->GetAttr(r.ino);
}

Result<InodeAttr> SimKernel::Fstat(Process& p, int fd) {
  SyscallScope sys(*this, p, Syscall::kFstat);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  // Attribute fetches need the server: inside a down window the caller sees
  // ETIMEDOUT (NFS hard-mount semantics), not stale cached attributes.
  if (auto avail = fs->CheckAvailable(); !avail.ok()) {
    return ToSyscallErr(avail.error());
  }
  return fs->GetAttr(of->ino);
}

Result<std::vector<DirEntry>> SimKernel::ReadDir(Process& p, std::string_view path) {
  SyscallScope sys(*this, p, Syscall::kReaddir);
  return vfs_.List(path);
}

Result<void> SimKernel::Unlink(Process& p, std::string_view path) {
  SyscallScope sys(*this, p, Syscall::kUnlink);
  SLED_ASSIGN_OR_RETURN(Vfs::Resolved r, vfs_.Resolve(path));
  const FileId fid = Vfs::MakeFileId(r.fs_id, r.ino);
  CancelFileIo(fid, 0);
  cache_.RemoveFile(fid);
  std::erase_if(writeback_queue_,
                [fid](const WritebackEntry& e) { return e.key.file == fid; });
  return vfs_.Unlink(path);
}

Result<void> SimKernel::Ftruncate(Process& p, int fd, int64_t size) {
  SyscallScope sys(*this, p, Syscall::kFtruncate);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  SLED_RETURN_IF_ERROR(fs->Truncate(of->ino, size));
  const int64_t first_dropped = PagesFor(size);
  CancelFileIo(of->fid, first_dropped);
  cache_.RemovePagesFrom(of->fid, first_dropped);
  const FileId fid = of->fid;
  std::erase_if(writeback_queue_,
                [fid, first_dropped](const WritebackEntry& e) {
                  return e.key.file == fid && e.key.page >= first_dropped;
                });
  return Result<void>::Ok();
}

Result<void> SimKernel::Fsync(Process& p, int fd) {
  SyscallScope sys(*this, p, Syscall::kFsync);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  const std::vector<PageKey> dirty = cache_.DirtyPagesOf(of->fid);
  if (engine_on()) {
    // Submit each contiguous dirty run as one write request, force the queue
    // to service them all, and sleep the process to the last completion.
    std::unordered_map<int64_t, WriteDone> done;
    write_done_sink_ = &done;
    std::vector<int64_t> ids;
    size_t i = 0;
    while (i < dirty.size()) {
      size_t j = i + 1;
      while (j < dirty.size() && dirty[j].page == dirty[j - 1].page + 1) {
        ++j;
      }
      ids.push_back(SubmitIo(p.pid(), IoOp::kWrite, of->fid, dirty[i].page,
                             static_cast<int64_t>(j - i)));
      i = j;
    }
    for (const PageKey& key : dirty) {
      cache_.MarkClean(key);
    }
    const TimePoint now = clock_.Now();
    for (const int64_t id : ids) {
      if (id != 0) {
        scheduler_.ForceDispatch(of->fs_id, id, now);
      }
    }
    write_done_sink_ = nullptr;
    TimePoint latest = now;
    for (const auto& [id, wd] : done) {
      latest = std::max(latest, wd.done);
    }
    WaitUntil(p, of->fid, latest);
    HarvestArrivals();
    // Failure handling, after the sink is disarmed. Fsync's own failed runs
    // re-dirty their (still resident) pages and the caller gets the error —
    // the data is not on stable storage. A background writeback that happened
    // to complete inside the window gets the normal resubmit treatment.
    const std::unordered_set<int64_t> own(ids.begin(), ids.end());
    Err first_err = Err::kOk;
    for (const auto& [id, wd] : done) {
      if (wd.ok) {
        continue;
      }
      if (own.contains(id)) {
        for (int64_t q = wd.req.first_page; q < wd.req.end_page(); ++q) {
          const PageKey key{of->fid, q};
          if (PageCache::Frame* frame = cache_.Probe(key)) {
            cache_.MarkDirty(frame);
          }
        }
        if (first_err == Err::kOk) {
          first_err = last_io_error_ != Err::kOk ? last_io_error_ : Err::kIo;
        }
      } else {
        HandleWritebackFailure(wd.req, wd.done);
      }
    }
    last_io_error_ = Err::kOk;
    if (first_err != Err::kOk) {
      return first_err;
    }
    return Result<void>::Ok();
  }
  // Collect the dirty runs first, then flush; a page is marked clean only
  // after its run reaches the store, so a failed flush leaves its pages (and
  // every later run's) dirty for a retry and the caller sees the error.
  struct Run {
    int64_t first = 0;
    int64_t len = 0;
  };
  std::vector<Run> runs;
  for (const PageKey& key : dirty) {
    if (!runs.empty() && key.page == runs.back().first + runs.back().len) {
      ++runs.back().len;
    } else {
      runs.push_back({key.page, 1});
    }
  }
  for (const Run& r : runs) {
    SLED_ASSIGN_OR_RETURN(Duration t,
                          StoreTransfer(p.pid(), of->fid, fs, of->ino, r.first, r.len,
                                        /*write=*/true));
    ChargeIo(p, t);
    stats_.pages_written_back += r.len;
    for (int64_t q = r.first; q < r.first + r.len; ++q) {
      cache_.MarkClean({of->fid, q});
    }
  }
  return Result<void>::Ok();
}

void SimKernel::QueueWriteback(Process* p, PageKey key) {
  obs_.WritebackQueued(key.file, key.page);
  if (engine_on()) {
    // Hand the page straight to the device queue: it goes out asynchronously
    // and the coalescer folds adjacent evictions into one access. Not an
    // error swallow: the id is unneeded (no one waits on eviction writeback)
    // and a dispatch failure is handled by CompleteIo's resubmit path.
    (void)SubmitIo(p != nullptr ? p->pid() : 0, IoOp::kWrite, key.file, key.page, 1);
    return;
  }
  writeback_queue_.push_back(WritebackEntry{key, /*attempts=*/0, TimePoint()});
  if (static_cast<int>(writeback_queue_.size()) >= config_.writeback_batch_pages) {
    // Not an error swallow: FlushWriteback handles its own failures (failed
    // runs stay queued with backoff, or count as lost past the attempt cap);
    // the returned duration is only of interest to FlushAllDirty.
    (void)FlushWriteback(p);
  }
}

Result<Duration> SimKernel::FlushWriteback(Process* p, bool force) {
  if (writeback_queue_.empty()) {
    return Duration();
  }
  const TimePoint now = clock_.Now();
  // Entries still inside their backoff window stay queued (unless forced).
  std::vector<WritebackEntry> waiting;
  std::vector<WritebackEntry> batch;
  batch.reserve(writeback_queue_.size());
  for (const WritebackEntry& e : writeback_queue_) {
    if (!force && now < e.not_before) {
      waiting.push_back(e);
    } else {
      batch.push_back(e);
    }
  }
  if (batch.empty()) {
    writeback_queue_ = std::move(waiting);
    return Duration();
  }
  std::sort(batch.begin(), batch.end(),
            [](const WritebackEntry& a, const WritebackEntry& b) {
              if (a.key.file != b.key.file) {
                return a.key.file < b.key.file;
              }
              if (a.key.page != b.key.page) {
                return a.key.page < b.key.page;
              }
              return a.attempts > b.attempts;  // duplicate: keep the retried entry
            });
  // A page can be queued twice between flushes (dirtied, evicted, re-read,
  // re-dirtied, evicted again). Deduplicate so each dirty page is written
  // exactly once per flush; the survivor keeps the higher attempt count so a
  // re-dirtied page cannot reset its ticket toward the lost cap.
  batch.erase(std::unique(batch.begin(), batch.end(),
                          [](const WritebackEntry& a, const WritebackEntry& b) {
                            return a.key.file == b.key.file && a.key.page == b.key.page;
                          }),
              batch.end());
  // Dispatch in device order, not file order: one ascending sweep per device
  // instead of seeking back and forth between files' extents. Ties (and pages
  // with no flat device address) keep the (file, page) order from above, so
  // single-file batches — and any file system whose allocation is sequential —
  // are flushed exactly as before.
  std::stable_sort(batch.begin(), batch.end(),
                   [this](const WritebackEntry& a, const WritebackEntry& b) {
                     const uint32_t afs = FsIdOfFid(a.key.file);
                     const uint32_t bfs = FsIdOfFid(b.key.file);
                     if (afs != bfs) {
                       return afs < bfs;
                     }
                     FileSystem* fs = vfs_.FsById(afs);
                     if (fs == nullptr) {
                       return false;
                     }
                     const int64_t aa = fs->DeviceAddressOf(InoOfFid(a.key.file), a.key.page);
                     const int64_t ba = fs->DeviceAddressOf(InoOfFid(b.key.file), b.key.page);
                     return aa < ba;
                   });
  Duration total;
  int64_t pages_flushed = 0;
  int64_t runs_flushed = 0;
  size_t i = 0;
  while (i < batch.size()) {
    const FileId fid = batch[i].key.file;
    const int64_t first = batch[i].key.page;
    size_t j = i + 1;
    while (j < batch.size() && batch[j].key.file == fid &&
           batch[j].key.page == batch[j - 1].key.page + 1) {
      ++j;
    }
    FileSystem* fs = vfs_.FsById(FsIdOfFid(fid));
    if (fs != nullptr) {
      auto t = StoreTransfer(p != nullptr ? p->pid() : 0, fid, fs, InoOfFid(fid), first,
                             static_cast<int64_t>(j - i), /*write=*/true);
      if (t.ok()) {
        total += t.value();
        stats_.pages_written_back += static_cast<int64_t>(j - i);
        pages_flushed += static_cast<int64_t>(j - i);
        ++runs_flushed;
      } else if (t.error() == Err::kIo || t.error() == Err::kTimedOut) {
        // Device/server failure past the immediate retries: the dirty data is
        // only in this queue now, so re-queue each page with backoff until the
        // attempt cap, past which it counts as lost.
        bool any_lost = false;
        for (size_t k = i; k < j; ++k) {
          WritebackEntry e = batch[k];
          ++e.attempts;
          if (e.attempts >= config_.fault.max_writeback_attempts) {
            ++stats_.writeback_lost;
            any_lost = true;
            continue;
          }
          ++stats_.writeback_retries;
          e.not_before = now + WritebackBackoff(e.attempts);
          waiting.push_back(e);
        }
        obs_.WritebackError(fid, first, static_cast<int64_t>(j - i), any_lost);
      }
      // Other errors (unlinked file, offline HSM file) drop the pages: the
      // data was already discarded at the content layer.
    }
    i = j;
  }
  writeback_queue_ = std::move(waiting);
  // A synchronous flush happens on behalf of whichever process pushed the
  // queue over the batch threshold; its device time belongs on that process's
  // I/O account (background flushes pass p == nullptr).
  if (p != nullptr) {
    ChargeIo(*p, total);
  } else {
    ChargeBackground(total);
  }
  obs_.WritebackFlush(p != nullptr ? p->pid() : 0, pages_flushed, runs_flushed, total);
  return total;
}

Result<void> SimKernel::IoctlSledsFill(Process& p, int level, DeviceCharacteristics chars) {
  SyscallScope sys(*this, p, Syscall::kIoctlSledsFill);
  return sleds_table_.Fill(level, chars);
}

// The scan is O(residency runs + level runs), not O(pages): resident stretches
// come straight from the cache's ordered index and non-resident stretches ask
// the file system for the length of each uniform-level run. The *simulated*
// charge stays sled_scan_per_page per page scanned, and the emitted vector is
// identical to a page-at-a-time scan (segments merge on equal level; a
// segment's byte length is min(end_page * kPageSize, size) - start byte).
Result<SledVector> SimKernel::BuildSleds(Process& p, const OpenFile& of, int64_t first_page,
                                         int64_t end_page, int64_t size, RankBy route_rank) {
  FileSystem* fs = FsOf(of);
  const int64_t npages = end_page - first_page;
  ChargeCpu(p, config_.costs.sled_scan_per_page * npages);

  SledVector sleds;
  sleds.reserve(static_cast<size_t>(2 * cache_.ResidentRunCountOf(of.fid) + 1));
  // Local->global level lookups repeat for every run of the same level;
  // memoizing is safe because pages are visited in ascending order, so an
  // unregistered level still fails on its first (lowest) page.
  std::vector<int> global_of_local;
  std::vector<DeviceHealth> health_of_local;
  auto append = [&](int64_t from_page, int64_t to_page, int level,
                    const DeviceHealth& health) {
    const int64_t bytes = std::min(to_page * kPageSize, size) - from_page * kPageSize;
    if (!sleds.empty() && sleds.back().level == level) {
      sleds.back().length += bytes;
      return;
    }
    const SledsTable::Row& row = sleds_table_.row(level);
    Sled s;
    s.offset = from_page * kPageSize;
    s.length = bytes;
    s.level = level;
    if (health.unavailable) {
      // Down window: the estimate must steer consumers away. Balloon the
      // latency to the unavailable penalty so latency-ordered plans defer the
      // section, and flag it so pickers can prune it outright.
      s.unavailable = true;
      s.latency = config_.fault.unavailable_latency_s;
      s.bandwidth = row.chars.bandwidth_bps;
      s.latency_p50 = s.latency_p90 = s.latency_p99 = s.latency;
    } else {
      // Slow window: the level answers, just late — the whole distribution
      // scales together. GC window: the mean moves by duty * stall while
      // quantile p absorbs the whole stall when duty exceeds 1 - p. The
      // arithmetic lives in AdjustForHealth so replica routers agree with
      // the SLEDs they advertise.
      const HealthAdjustedLatency adj = AdjustForHealth(row.chars, health);
      s.latency = adj.mean_s;
      s.bandwidth = adj.bandwidth_bps;
      s.latency_p50 = adj.q.p50;
      s.latency_p90 = adj.q.p90;
      s.latency_p99 = adj.q.p99;
    }
    sleds.push_back(s);
  };
  int64_t page = first_page;
  while (page < end_page) {
    const auto run = cache_.NextResidentRun(of.fid, page);
    if (run.has_value() && run->first <= page) {
      // Resident stretch: one memory-level segment to the run's end.
      const int64_t to = std::min(run->end(), end_page);
      append(page, to, kMemoryLevel, DeviceHealth{});
      page = to;
      continue;
    }
    // Non-resident stretch up to the next resident run (or the scan end):
    // walk it a level-run at a time.
    const int64_t miss_end = run.has_value() ? std::min(run->first, end_page) : end_page;
    while (page < miss_end) {
      const int local = fs->RouteLevelOf(of.ino, page, route_rank);
      int global = -1;
      if (local >= 0 && static_cast<size_t>(local) < global_of_local.size()) {
        global = global_of_local[static_cast<size_t>(local)];
      }
      if (global < 0) {
        SLED_ASSIGN_OR_RETURN(global, sleds_table_.GlobalLevelOf(of.fs_id, local));
        if (local >= 0) {
          if (static_cast<size_t>(local) >= global_of_local.size()) {
            global_of_local.resize(static_cast<size_t>(local) + 1, -1);
            health_of_local.resize(static_cast<size_t>(local) + 1);
          }
          global_of_local[static_cast<size_t>(local)] = global;
          // Health is sampled once per scan per level (with the same memo):
          // one consistent estimate even if a fault window edge passes mid-scan.
          health_of_local[static_cast<size_t>(local)] = fs->LevelHealth(local);
        }
      }
      const DeviceHealth health =
          local >= 0 && static_cast<size_t>(local) < health_of_local.size()
              ? health_of_local[static_cast<size_t>(local)]
              : fs->LevelHealth(local);
      int64_t len = fs->LevelRunLen(of.ino, page, miss_end - page);
      len = std::max<int64_t>(1, std::min(len, miss_end - page));
      append(page, page + len, global, health);
      page += len;
    }
  }
  obs_.SledScan(p.pid(), of.fid, npages, static_cast<int64_t>(sleds.size()));
  return sleds;
}

Result<SledVector> SimKernel::IoctlSledsGet(Process& p, int fd, RankBy route_rank) {
  SyscallScope sys(*this, p, Syscall::kIoctlSledsGet);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  FileSystem* fs = FsOf(*of);
  const int64_t size = fs->SizeOf(of->ino);
  return BuildSleds(p, *of, 0, PagesFor(size), size, route_rank);
}

Result<SledVector> SimKernel::IoctlSledsGet(Process& p, int fd, int64_t offset, int64_t length,
                                            RankBy route_rank) {
  SyscallScope sys(*this, p, Syscall::kIoctlSledsGet);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  if (!RangeInBounds(offset, length)) {
    return Err::kInval;
  }
  FileSystem* fs = FsOf(*of);
  const int64_t size = fs->SizeOf(of->ino);
  const int64_t npages = PagesFor(size);
  const int64_t first = std::min(offset / kPageSize, npages);
  const int64_t end =
      length == 0 ? first : std::min((offset + length - 1) / kPageSize + 1, npages);
  return BuildSleds(p, *of, first, std::max(first, end), size, route_rank);
}

Result<int64_t> SimKernel::IoctlSledsLock(Process& p, int fd, int64_t offset, int64_t length) {
  SyscallScope sys(*this, p, Syscall::kIoctlSledsLock);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  if (length <= 0 || !RangeInBounds(offset, length)) {
    return Err::kInval;
  }
  FileSystem* fs = FsOf(*of);
  const int64_t size = fs->SizeOf(of->ino);
  const int64_t first = offset / kPageSize;
  const int64_t last = std::min(PagesFor(size) - 1, (offset + length - 1) / kPageSize);
  // Non-resident pages are skipped: a SLED lock freezes the *current* state;
  // it does not promote data into the cache. Walking the residency index
  // visits only resident pages, so the pinned set (and its order) matches a
  // page-at-a-time probe.
  int64_t pinned = 0;
  int64_t page = first;
  while (page <= last) {
    const auto run = cache_.NextResidentRun(of->fid, page);
    if (!run.has_value() || run->first > last) {
      break;
    }
    const int64_t hi = std::min(run->end() - 1, last);
    for (int64_t q = std::max(run->first, page); q <= hi; ++q) {
      PageCache::Frame* frame = cache_.Probe({of->fid, q});
      if (frame == nullptr || frame->pinned()) {
        continue;  // already locked (possibly by another descriptor)
      }
      if (cache_.Pin(frame)) {
        of->locked_pages.push_back(q);
        ++pinned;
      }
    }
    page = run->end();
  }
  ChargeCpu(p, config_.costs.sled_scan_per_page * (last - first + 1));
  return pinned;
}

Result<int64_t> SimKernel::IoctlSledsUnlock(Process& p, int fd, int64_t offset, int64_t length) {
  SyscallScope sys(*this, p, Syscall::kIoctlSledsUnlock);
  SLED_ASSIGN_OR_RETURN(OpenFile * of, FdOf(p, fd));
  if (offset < 0 || length == 0 || (length > 0 && !RangeInBounds(offset, length))) {
    return Err::kInval;
  }
  const int64_t first = length < 0 ? 0 : offset / kPageSize;
  const int64_t last =
      length < 0 ? std::numeric_limits<int64_t>::max() : (offset + length - 1) / kPageSize;
  int64_t released = 0;
  std::erase_if(of->locked_pages, [&](int64_t page) {
    if (page < first || page > last) {
      return false;
    }
    cache_.Unpin({of->fid, page});
    ++released;
    return true;
  });
  return released;
}

void SimKernel::DropCaches() {
  // Not an error swallow: FlushAllDirty accounts its own failures (retries,
  // then stats_.writeback_lost); the duration is irrelevant to cache setup.
  (void)FlushAllDirty();
  cache_.Clear();
}

Duration SimKernel::FlushAllDirty() {
  if (engine_on()) {
    // Submit every dirty run, then drain all queues to quiescence: after the
    // drain the clock sits at (or past) every completion, so a harvest clears
    // all in-flight state and DropCaches can safely clear the cache.
    const std::vector<PageKey> dirty = cache_.AllDirtyPages();
    size_t i = 0;
    while (i < dirty.size()) {
      size_t j = i + 1;
      while (j < dirty.size() && dirty[j].file == dirty[i].file &&
             dirty[j].page == dirty[j - 1].page + 1) {
        ++j;
      }
      // Not an error swallow: SubmitIo returns the request id (0 when the
      // file system is gone); completion — including failure resubmits — is
      // handled by CompleteIo during the drain below.
      (void)SubmitIo(0, IoOp::kWrite, dirty[i].file, dirty[i].page, static_cast<int64_t>(j - i));
      i = j;
    }
    for (const PageKey& key : dirty) {
      cache_.MarkClean(key);
    }
    const TimePoint now = clock_.Now();
    const TimePoint latest = scheduler_.Drain(now);
    const Duration waited = now < latest ? latest - now : Duration();
    ChargeBackground(waited);
    HarvestArrivals();
    return waited;
  }
  Duration total;
  for (const PageKey& key : cache_.AllDirtyPages()) {
    FileSystem* fs = vfs_.FsById(FsIdOfFid(key.file));
    if (fs != nullptr) {
      auto t = StoreTransfer(0, key.file, fs, InoOfFid(key.file), key.page, 1,
                             /*write=*/true);
      if (t.ok()) {
        total += t.value();
        stats_.pages_written_back += 1;
      } else if (t.error() == Err::kIo || t.error() == Err::kTimedOut) {
        // The frame is about to be surrendered (DropCaches): hand the page to
        // the writeback queue so the forced drain below retries it.
        writeback_queue_.push_back(
            WritebackEntry{key, /*attempts=*/1, clock_.Now() + WritebackBackoff(1)});
        ++stats_.writeback_retries;
        obs_.WritebackError(key.file, key.page, 1, /*lost=*/false);
      }
      // Other errors (unlinked file, offline HSM file) drop the page: the
      // data was already discarded at the content layer.
    }
    cache_.MarkClean(key);
  }
  ChargeBackground(total);
  // Forced drain of the queue: retried entries go back in with a higher
  // attempt count, so max_writeback_attempts passes bound the loop — anything
  // still failing by then has been counted lost and dropped.
  for (int pass = 0; pass < config_.fault.max_writeback_attempts && !writeback_queue_.empty();
       ++pass) {
    auto queued = FlushWriteback(nullptr, /*force=*/true);  // charges the background itself
    if (queued.ok()) {
      total += queued.value();
    }
  }
  return total;
}

Duration SimKernel::RunMaintenance() {
  Duration total;
  for (const auto& [path, fs_id] : vfs_.Mounts()) {
    FileSystem* fs = vfs_.FsById(fs_id);
    if (fs == nullptr) {
      continue;
    }
    auto t = fs->BackgroundMaintenance();
    if (t.ok()) {
      total += t.value();
    }
  }
  ChargeBackground(total);
  return total;
}

}  // namespace sled
