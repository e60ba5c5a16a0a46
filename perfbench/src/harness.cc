#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ---- spans ----

int Tracer::Begin(std::string_view name, int64_t op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::string(name), NowNs(), 0, open_.empty() ? -1 : open_.back(), op});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order end by unwinding.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

void Tracer::AddFinished(std::string_view name, int64_t start_ns, int64_t end_ns, int parent,
                         int64_t op) {
  spans_.push_back({std::string(name), start_ns, end_ns, parent, op});
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children on parallel shard threads can cover more than their parent's
    // interval; self time never goes negative.
    const int64_t own = std::max<int64_t>(0, s.end_ns - s.start_ns - child_ns[i]);
    self[s.name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%lld,%s,%lld,%lld\n", i, s.parent, static_cast<long long>(s.op),
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, std::string_view name, int64_t op)
    : tracer_(tracer), start_ns_(NowNs()) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Begin(name, op);
  }
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) {
    tracer_->End(id_);
  }
}

double SpanScope::seconds() const { return static_cast<double>(NowNs() - start_ns_) * 1e-9; }

// ---- counters ----

void SnapshotKernel(sled::SimKernel& kernel, Counters* out) {
  const sled::KernelStats& k = kernel.stats();
  (*out)["kstat.pages_paged_in"] = k.pages_paged_in;
  (*out)["kstat.pages_written_back"] = k.pages_written_back;
  (*out)["kstat.io_errors"] = k.io_errors;
  (*out)["kstat.io_retries"] = k.io_retries;
  (*out)["kstat.writeback_lost"] = k.writeback_lost;
  const sled::PageCacheStats& c = kernel.cache().stats();
  (*out)["cache.hits"] = c.hits;
  (*out)["cache.misses"] = c.misses;
  (*out)["cache.evictions"] = c.evictions;
  (*out)["cache.dirty_evictions"] = c.dirty_evictions;
  SnapshotRegistry(kernel.obs().metrics(), out);
  (*out)["trace.total"] = kernel.obs().trace().total();
}

void SnapshotProcess(const sled::Process& process, Counters* out) {
  const sled::ProcessStats& s = process.stats();
  (*out)["proc.syscalls"] = s.syscalls;
  (*out)["proc.major_faults"] = s.major_faults;
  (*out)["proc.bytes_read"] = s.bytes_read;
  (*out)["proc.cpu_ns"] = s.cpu_time.nanos();
  (*out)["proc.io_ns"] = s.io_time.nanos();
}

void SnapshotRegistry(const sled::MetricRegistry& registry, Counters* out) {
  for (const auto& [name, value] : registry.counters()) {
    (*out)["m." + name] = value;
  }
  for (const auto& [name, hist] : registry.histograms()) {
    (*out)["h." + name + ".sum_ns"] = hist.sum().nanos();
    (*out)["h." + name + ".count"] = hist.count();
  }
}

void AccumulateDelta(const Counters& before, const Counters& after, Counters* sum) {
  for (const auto& [key, value] : after) {
    (*sum)[key] += value - Get(before, key);
  }
}

int64_t Get(const Counters& c, std::string_view key) {
  auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

// ---- report ----

void Report::Add(std::string name, double value, std::string unit, bool deterministic) {
  metrics_.push_back({std::move(name), value, std::move(unit), deterministic});
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g round-trips a double: the value is printed with all its digits.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
