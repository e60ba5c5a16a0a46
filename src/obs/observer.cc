#include "src/obs/observer.h"

#include <cstdio>

#include "src/common/log.h"

namespace sled {
namespace {

// Level/device names become metric-key segments; keep them to one token.
std::string Sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

Observer::Observer(const SimClock* clock, size_t trace_capacity)
    : clock_(clock), trace_(trace_capacity) {
  SLED_CHECK(clock_ != nullptr, "observer needs a clock");
}

void Observer::SetLevelName(int level, std::string name) {
  if (level < 0) {
    return;
  }
  if (static_cast<int>(level_names_.size()) <= level) {
    level_names_.resize(static_cast<size_t>(level) + 1);
  }
  level_names_[static_cast<size_t>(level)] = Sanitize(name);
}

std::string_view Observer::LevelName(int level) const {
  if (level < 0 || level >= static_cast<int>(level_names_.size())) {
    return "unknown";
  }
  return level_names_[static_cast<size_t>(level)];
}

std::string Observer::LevelKey(int level, std::string_view suffix) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "level.%d.", level);
  std::string key = buf;
  key += LevelName(level);
  key += '.';
  key += suffix;
  return key;
}

std::string_view Observer::TagName(std::string_view name) {
  auto it = tag_names_.find(name);
  if (it == tag_names_.end()) {
    it = tag_names_.emplace(name).first;
  }
  return *it;
}

void Observer::SyscallEnter(int pid, Syscall call) {
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kSyscallEnter;
  e.pid = pid;
  e.tag = SyscallName(call);
  trace_.Push(e);
}

void Observer::SyscallExit(int pid, Syscall call, Duration latency) {
  LatencyHistogram*& histogram = syscall_latency_[static_cast<size_t>(call)];
  if (histogram == nullptr) {
    std::string key = "syscall.";
    key += SyscallName(call);
    histogram = &metrics_.HistogramSlot(key);
  }
  histogram->Record(latency);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kSyscallExit;
  e.pid = pid;
  e.dur = latency;
  e.tag = SyscallName(call);
  trace_.Push(e);
}

void Observer::PageIn(int pid, uint64_t file, int64_t first_page, int64_t pages, int level,
                      Duration device_time) {
  metrics_.Add("kernel.pageins");
  metrics_.Add("kernel.pages_paged_in", pages);
  if (level >= 0) {
    metrics_.Add(LevelKey(level, "pageins"));
    metrics_.Add(LevelKey(level, "pagein_pages"), pages);
    metrics_.Observe(LevelKey(level, "pagein_time"), device_time);
  }
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kPageIn;
  e.pid = pid;
  e.level = level;
  e.file = file;
  e.a = first_page;
  e.b = pages;
  e.dur = device_time;
  trace_.Push(e);
}

void Observer::Readahead(int pid, uint64_t file, int64_t first_page, int64_t pages) {
  metrics_.Add("kernel.readahead_batches");
  metrics_.Add("kernel.readahead_pages", pages);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kReadahead;
  e.pid = pid;
  e.file = file;
  e.a = first_page;
  e.b = pages;
  trace_.Push(e);
}

void Observer::WritebackQueued(uint64_t file, int64_t page) {
  metrics_.Add("kernel.writeback_queued");
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kWritebackQueue;
  e.file = file;
  e.a = page;
  trace_.Push(e);
}

void Observer::WritebackFlush(int pid, int64_t pages, int64_t runs, Duration device_time) {
  metrics_.Add("kernel.writeback_flushes");
  metrics_.Add("kernel.writeback_pages", pages);
  metrics_.Add("kernel.writeback_runs", runs);
  metrics_.Observe("writeback.flush_time", device_time);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kWritebackFlush;
  e.pid = pid;
  e.a = pages;
  e.b = runs;
  e.dur = device_time;
  trace_.Push(e);
}

void Observer::DeviceTransfer(std::string_view device, bool write, int64_t offset, int64_t nbytes,
                              Duration service_time, bool repositioned) {
  std::string key = "dev.";
  key += Sanitize(device);
  const size_t base_len = key.size();
  key += write ? ".writes" : ".reads";
  metrics_.Add(key);
  key.resize(base_len);
  key += write ? ".bytes_written" : ".bytes_read";
  metrics_.Add(key, nbytes);
  if (repositioned) {
    key.resize(base_len);
    key += ".repositions";
    metrics_.Add(key);
  }
  key.resize(base_len);
  key += write ? ".write_time" : ".read_time";
  metrics_.Observe(key, service_time);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = write ? TraceKind::kDeviceWrite : TraceKind::kDeviceRead;
  e.a = offset;
  e.b = nbytes;
  e.dur = service_time;
  e.tag = TagName(device);
  trace_.Push(e);
}

void Observer::SledScan(int pid, uint64_t file, int64_t pages, int64_t runs) {
  metrics_.Add("kernel.sled_scans");
  metrics_.Add("kernel.sled_scan_pages", pages);
  // Run-length accounting: how many SLED segments the scan produced. The
  // pages/runs ratio is the fragmentation the run-indexed scan exploits.
  metrics_.Add("kernel.sled_scan_runs", runs);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kSledScan;
  e.pid = pid;
  e.file = file;
  e.a = runs;
  e.b = pages;
  trace_.Push(e);
}

void Observer::VfsResolve() {
  if (vfs_resolves_ == nullptr) {
    vfs_resolves_ = &metrics_.CounterSlot("vfs.resolves");
  }
  ++*vfs_resolves_;
}

void Observer::CacheGauges(int64_t size_pages, int64_t capacity_pages, int64_t pinned_pages,
                           int64_t in_flight_pages, int64_t dirty_pages,
                           int64_t resident_files) {
  metrics_.SetGauge("cache.size_pages", size_pages);
  metrics_.SetGauge("cache.capacity_pages", capacity_pages);
  metrics_.SetGauge("cache.pinned_pages", pinned_pages);
  metrics_.SetGauge("cache.in_flight_pages", in_flight_pages);
  metrics_.SetGauge("cache.dirty_pages", dirty_pages);
  metrics_.SetGauge("cache.resident_files", resident_files);
}

void Observer::IoSubmit(int pid, std::string_view queue, uint64_t file, int64_t first_page,
                        int64_t pages, bool write, int64_t depth) {
  std::string key = "io.";
  key += Sanitize(queue);
  const size_t base_len = key.size();
  key += ".submitted";
  metrics_.Add(key);
  key.resize(base_len);
  key += ".depth";
  metrics_.SetGauge(key, depth);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kIoSubmit;
  e.pid = pid;
  e.file = file;
  e.a = first_page;
  e.b = pages;
  e.tag = TagName(queue);
  e.level = write ? 1 : 0;  // repurposed: 1 = write request
  trace_.Push(e);
}

void Observer::IoDispatch(std::string_view queue, int64_t pages, int64_t parts, int64_t depth,
                          Duration service_time) {
  std::string key = "io.";
  key += Sanitize(queue);
  const size_t base_len = key.size();
  key += ".dispatches";
  metrics_.Add(key);
  key.resize(base_len);
  key += ".dispatched_pages";
  metrics_.Add(key, pages);
  if (parts > 1) {
    key.resize(base_len);
    key += ".merged";
    metrics_.Add(key, parts - 1);
  }
  key.resize(base_len);
  key += ".depth";
  metrics_.SetGauge(key, depth);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kIoDispatch;
  e.a = pages;
  e.b = parts;
  e.dur = service_time;
  e.tag = TagName(queue);
  trace_.Push(e);
}

void Observer::IoWait(int pid, uint64_t file, Duration waited) {
  metrics_.Add("kernel.io_waits");
  metrics_.Observe("io.wait_time", waited);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kIoWait;
  e.pid = pid;
  e.file = file;
  e.dur = waited;
  trace_.Push(e);
}

void Observer::DeviceError(std::string_view device, bool write, Err error) {
  std::string key = "dev.";
  key += Sanitize(device);
  key += write ? ".write_errors" : ".read_errors";
  metrics_.Add(key);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kDeviceError;
  e.level = write ? 1 : 0;  // repurposed: 1 = write op
  std::string tag(device);
  tag += ':';
  tag += ErrName(error);
  e.tag = TagName(tag);
  trace_.Push(e);
}

void Observer::IoRetry(int pid, uint64_t file, int attempt, Err error) {
  metrics_.Add("kernel.io_retries");
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kIoRetry;
  e.pid = pid;
  e.file = file;
  e.a = attempt;
  e.tag = ErrName(error);  // a view of a string literal
  trace_.Push(e);
}

void Observer::WritebackError(uint64_t file, int64_t first_page, int64_t pages, bool lost) {
  metrics_.Add("kernel.writeback_errors");
  if (lost) {
    metrics_.Add("kernel.writeback_lost", pages);
  }
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kWritebackError;
  e.file = file;
  e.a = first_page;
  e.b = pages;
  e.level = lost ? 1 : 0;  // repurposed: 1 = pages dropped past the attempt cap
  trace_.Push(e);
}

void Observer::ReplicaDegradedRead(std::string_view fs, int replica, int64_t bytes) {
  metrics_.Add("replica.degraded_reads");
  metrics_.Add("replica.degraded_bytes", bytes);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kReplicaDegraded;
  e.level = replica;  // repurposed: replica index that served the read
  e.b = bytes;
  e.tag = TagName(fs);
  trace_.Push(e);
}

void Observer::ReplicaStale(std::string_view fs, int replica, int64_t bytes) {
  metrics_.Add("replica.stale_marks");
  metrics_.Add("replica.stale_bytes", bytes);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kReplicaStale;
  e.level = replica;  // repurposed: replica index left stale
  e.b = bytes;
  e.tag = TagName(fs);
  trace_.Push(e);
}

void Observer::ReplicaRecovery(std::string_view fs, int replica, int64_t bytes) {
  metrics_.Add("replica.recovery_runs");
  metrics_.Add("replica.recovery_bytes", bytes);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kReplicaRecovery;
  e.level = replica;  // repurposed: replica index re-synced
  e.b = bytes;
  e.tag = TagName(fs);
  trace_.Push(e);
}

void Observer::ReplicaHedge(std::string_view fs, bool win) {
  metrics_.Add("replica.hedges");
  if (win) {
    metrics_.Add("replica.hedge_wins");
  }
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kReplicaHedge;
  e.level = win ? 1 : 0;  // repurposed: 1 = the hedge won
  e.tag = TagName(fs);
  trace_.Push(e);
}

void Observer::ProgInstall(int pid, uint64_t file, int kind) {
  metrics_.Add("progs.installed");
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kProgInstall;
  e.pid = pid;
  e.file = file;
  e.a = kind;  // repurposed: ProgKind ordinal
  trace_.Push(e);
}

void Observer::ProgResubmit(int pid, uint64_t file, int64_t offset, int64_t bytes) {
  metrics_.Add("progs.resubmits");
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kProgResubmit;
  e.pid = pid;
  e.file = file;
  e.a = offset;
  e.b = bytes;
  trace_.Push(e);
}

void Observer::ProgDone(int pid, uint64_t file, int kind, bool aborted, int64_t invocations,
                        int64_t resubmits, int64_t bytes_examined) {
  metrics_.Add("progs.runs");
  if (aborted) {
    metrics_.Add("progs.aborts");
  }
  metrics_.Add("progs.invocations", invocations);
  metrics_.Add("progs.bytes_examined", bytes_examined);
  TraceRecord e;
  e.at = clock_->Now();
  e.kind = TraceKind::kProgDone;
  e.pid = pid;
  e.file = file;
  e.level = aborted ? 1 : 0;  // repurposed: 1 = resource bound hit
  e.a = kind;                 // repurposed: ProgKind ordinal
  e.b = resubmits;
  trace_.Push(e);
}

std::string Observer::MetricsJson() const {
  std::string out = metrics_.ToJson();
  SLED_CHECK(!out.empty() && out.back() == '}', "malformed metrics json");
  out.pop_back();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",  \"trace\": {\"total\": %lld, \"retained\": %lld, \"dropped\": %lld}\n}",
                static_cast<long long>(trace_.total()),
                static_cast<long long>(trace_.size()),
                static_cast<long long>(trace_.dropped()));
  out += buf;
  return out;
}

}  // namespace sled
