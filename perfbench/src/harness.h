// Measurement plumbing shared by every workload: wall-clock spans, counter
// snapshots of the public layer statistics, quantiles, and the metric report.
//
// Nothing here touches the simulator's internals. Spans bracket the calls the
// benchmark itself makes into a layer; counters are read from statistics the
// layers already publish (Process::stats, SimKernel::stats, PageCache::stats,
// the Observer's metric registry and trace ring).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/sim_kernel.h"
#include "src/obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since a process-wide epoch (the first call).
int64_t NowNs();

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// ---- spans ----

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  int64_t op = -1;  // op id, -1 outside the timed ops
};

// In-memory span recorder, used from the main thread only. Spans nest: a span
// begun while another is open becomes its child.
class Tracer {
 public:
  int Begin(std::string_view name, int64_t op = -1);
  void End(int id);
  // Record an already-finished span under `parent` (world bodies timed on
  // shard threads are added after the runtime joins them).
  void AddFinished(std::string_view name, int64_t start_ns, int64_t end_ns, int parent,
                   int64_t op);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time (duration minus time covered by children), summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span around one call into a layer. With a null tracer it is only a
// stopwatch, so untraced runs pay two clock reads and nothing else.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, int64_t op = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  double seconds() const;

 private:
  Tracer* tracer_;
  int id_ = -1;
  int64_t start_ns_;
};

// ---- counters ----

// Flat counter snapshot. Keys are prefixed by source:
//   proc.*  one process's stats       kstat.*  SimKernel::stats()
//   cache.* PageCache::stats()        m.*      Observer metric counters
//   h.<histogram>.sum_ns / .count     trace.total
using Counters = std::map<std::string, int64_t, std::less<>>;

void SnapshotKernel(sled::SimKernel& kernel, Counters* out);
void SnapshotProcess(const sled::Process& process, Counters* out);
void SnapshotRegistry(const sled::MetricRegistry& registry, Counters* out);
// *sum += after - before, key by key.
void AccumulateDelta(const Counters& before, const Counters& after, Counters* sum);
int64_t Get(const Counters& c, std::string_view key);

// ---- report ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Bit-identical across runs at one seed (simulated time or a count).
  bool deterministic = false;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, bool deterministic = false);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Peak resident set of this process, MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
