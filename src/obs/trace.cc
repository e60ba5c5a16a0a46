#include "src/obs/trace.h"

#include <cstdio>

#include "src/common/log.h"

namespace sled {

std::string_view TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSyscallEnter:
      return "syscall_enter";
    case TraceKind::kSyscallExit:
      return "syscall_exit";
    case TraceKind::kPageIn:
      return "page_in";
    case TraceKind::kReadahead:
      return "readahead";
    case TraceKind::kWritebackQueue:
      return "writeback_queue";
    case TraceKind::kWritebackFlush:
      return "writeback_flush";
    case TraceKind::kDeviceRead:
      return "device_read";
    case TraceKind::kDeviceWrite:
      return "device_write";
    case TraceKind::kSledScan:
      return "sled_scan";
    case TraceKind::kIoSubmit:
      return "io_submit";
    case TraceKind::kIoDispatch:
      return "io_dispatch";
    case TraceKind::kIoWait:
      return "io_wait";
    case TraceKind::kDeviceError:
      return "device_error";
    case TraceKind::kIoRetry:
      return "io_retry";
    case TraceKind::kWritebackError:
      return "writeback_error";
    case TraceKind::kReplicaDegraded:
      return "replica_degraded";
    case TraceKind::kReplicaStale:
      return "replica_stale";
    case TraceKind::kReplicaRecovery:
      return "replica_recovery";
    case TraceKind::kReplicaHedge:
      return "replica_hedge";
    case TraceKind::kProgInstall:
      return "prog_install";
    case TraceKind::kProgResubmit:
      return "prog_resubmit";
    case TraceKind::kProgDone:
      return "prog_done";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity) {
  SLED_CHECK(capacity_ > 0, "trace ring needs capacity");
  events_.reserve(capacity_);
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

std::string TraceRing::DumpCsv(size_t max_events) const {
  const std::vector<TraceRecord> events = Snapshot();
  const size_t n = std::min(max_events, events.size());
  const size_t skip = events.size() - n;
  std::string out = "seq,t_ns,kind,pid,level,file,a,b,dur_ns,tag\n";
  // Sequence numbers are global: the oldest retained event is `dropped()`.
  int64_t seq = dropped() + static_cast<int64_t>(skip);
  char buf[256];
  for (size_t i = skip; i < events.size(); ++i, ++seq) {
    const TraceRecord& e = events[i];
    std::snprintf(buf, sizeof(buf), "%lld,%lld,%.*s,%d,%d,%llu,%lld,%lld,%lld,",
                  static_cast<long long>(seq),
                  static_cast<long long>(e.at.since_epoch().nanos()),
                  static_cast<int>(TraceKindName(e.kind).size()), TraceKindName(e.kind).data(),
                  e.pid, e.level, static_cast<unsigned long long>(e.file),
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  static_cast<long long>(e.dur.nanos()));
    out += buf;
    out += e.tag;
    out += "\n";
  }
  return out;
}

void TraceRing::Clear() {
  events_.clear();
  head_ = 0;
  total_ = 0;
}

}  // namespace sled
