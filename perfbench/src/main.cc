// The repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--ops <n>] [--tiny] [--spans <file.csv>]
//
// --trace 0 prints the end-to-end metrics: set-up time, throughput, wall and
// simulated time per op, peak memory. --trace 1 runs the same ops half
// untraced, half traced, then the probes, and prints the per-layer metrics.
// --ops sets the sample floor, rounded up to whole batches, and lets the run
// stop after one cycle (with --seconds 0 the run is then fully
// deterministic); --tiny shrinks every input for the self-test.
//
// The last line of stdout is the result: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. The exit code is nonzero when any op
// failed or any output check mismatched.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t ops = 0;
  bool tiny = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--ops") {
      a->ops = std::atoll(v);
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 0;
}

// An end-to-end run times every op of the workload's cycle at least this many
// times (see EndToEnd).
constexpr int64_t kMinCycles = 4;

struct Phase {
  std::vector<OpRecord> ops;
  double wall_s = 0;
  // Elapsed seconds at the end of each batch, keyed by ops done by then.
  std::map<size_t, double> batch_end_s;
};

// Closed loop: batches back to back until both the time and the op floor are
// reached. Batches are whole rounds of every variant, so the variant mix is
// always balanced.
Phase RunPhase(Workload& w, double seconds, int64_t min_ops, TraceSink* trace) {
  Phase ph;
  const int64_t t0 = NowNs();
  do {
    w.RunBatch(trace, &ph.ops);
    ph.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    ph.batch_end_s[ph.ops.size()] = ph.wall_s;
  } while (static_cast<int64_t>(ph.ops.size()) < min_ops || ph.wall_s < seconds);
  return ph;
}

std::vector<double> WallMs(const std::vector<OpRecord>& ops, size_t limit = SIZE_MAX) {
  std::vector<double> v;
  for (size_t i = 0; i < ops.size() && i < limit; ++i) {
    v.push_back(ops[i].wall_ms);
  }
  return v;
}

std::vector<double> SimMs(const std::vector<OpRecord>& ops, size_t limit, int variant = -1) {
  std::vector<double> v;
  for (size_t i = 0; i < ops.size() && i < limit; ++i) {
    if (variant < 0 || ops[i].variant == variant) {
      v.push_back(ops[i].sim_ms);
    }
  }
  return v;
}

int64_t Failed(const std::vector<OpRecord>& ops) {
  int64_t n = 0;
  for (const OpRecord& r : ops) {
    n += r.failed ? 1 : 0;
  }
  return n;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

int VariantIndex(const Workload& w, const std::string& name) {
  const auto& v = w.variants();
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

template <typename F>
double MedianOf(const std::vector<SetupTimes>& setups, F field) {
  std::vector<double> v;
  for (const SetupTimes& s : setups) {
    v.push_back(field(s));
  }
  return Quantile(v, 0.5);
}

// Shared hosts have slow spells: for seconds at a time, identical work takes
// up to ~1.5x longer. Runs land in them by chance, so plain quantiles over a
// run's ops spread by 20-30% between runs of identical work. The op schedule
// repeats every `cycle` ops, so each op of the cycle is timed once per whole
// cycle run, and keeps its fastest time: best of N, the usual estimator for
// deterministic work under interference that only ever adds time.
// op_wall_ms_* are quantiles over the cycle's ops of those per-op bests.
// ops_per_s does the same per batch, harness work included: a cycle's ops
// over the sum of its batches' best times. The simulated-time quantiles use
// exactly the first `sample` ops.
void EndToEnd(const std::vector<SetupTimes>& setups, const Phase& ph, size_t batch, size_t cycle,
              size_t sample, Report* report) {
  const size_t cycles = ph.ops.size() / cycle;
  std::vector<double> best(cycle, INFINITY);
  for (size_t i = 0; i < cycles * cycle; ++i) {
    best[i % cycle] = std::min(best[i % cycle], ph.ops[i].wall_ms);
  }
  std::vector<double> best_batch_s(cycle / batch, INFINITY);
  double batch_start_s = 0;
  for (const auto& [done, end_s] : ph.batch_end_s) {
    if (done <= cycles * cycle) {
      double& b = best_batch_s[(done / batch - 1) % best_batch_s.size()];
      b = std::min(b, end_s - batch_start_s);
    }
    batch_start_s = end_s;
  }
  double cycle_s = 0;
  for (double s : best_batch_s) {
    cycle_s += s;
  }
  const std::vector<double> sim = SimMs(ph.ops, sample);
  report->Add("setup_s", MedianOf(setups, [](const SetupTimes& s) { return s.total; }), "s");
  report->Add("ops_per_s", static_cast<double>(cycle) / cycle_s, "ops/s");
  report->Add("op_wall_ms_p50", Quantile(best, 0.5), "ms");
  report->Add("op_wall_ms_p90", Quantile(best, 0.9), "ms");
  report->Add("sim_op_ms_p50", Quantile(sim, 0.5), "ms", true);
  report->Add("sim_op_ms_p90", Quantile(sim, 0.9), "ms", true);
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  const std::vector<double> wall = WallMs(ph.ops, cycles * cycle);
  std::printf(
      "samples: %zu ops run, %zu whole cycles of %zu ops (op_wall_ms: best per op; ops_per_s: "
      "best per batch), first %zu ops for sim_op_ms, %zu set-ups\n"
      "all ops of whole cycles: op_wall_ms p50 %.6g p90 %.6g, ops_per_s %.6g\n",
      ph.ops.size(), cycles, cycle, sim.size(), setups.size(), Quantile(wall, 0.5),
      Quantile(wall, 0.9), static_cast<double>(wall.size()) / ph.batch_end_s.at(wall.size()));
}

void PerLayer(const Workload& w, const std::vector<SetupTimes>& setups, const Phase& untraced,
              const Phase& traced, const TraceSink& sink, const ProbeResults& probe,
              double failed_ratio, Report* r) {
  const Counters& S = sink.sums;
  const double n = static_cast<double>(traced.ops.size());
  auto per_op = [&](std::string_view key) { return Ratio(static_cast<double>(Get(S, key)), n); };
  auto sum_ms = [&](std::string_view hist) {
    return static_cast<double>(Get(S, "h." + std::string(hist) + ".sum_ns")) * 1e-6;
  };

  // workload
  const double gen_s = MedianOf(setups, [](const SetupTimes& s) { return s.generate; });
  const double gen_mb = static_cast<double>(setups.back().generated_bytes) * 1e-6;
  const std::string& generator = setups.back().generator;
  r->Add("workload.testbed_ms",
         MedianOf(setups, [](const SetupTimes& s) { return s.testbed; }) * 1e3, "ms");
  for (const char* gen : {"textgen", "fitsgen"}) {
    r->Add(std::string("workload.") + gen + "_mb_per_s",
           generator == std::string("workload.") + gen ? Ratio(gen_mb, gen_s) : 0, "MB/s");
  }
  r->Add("workload.warmup_s",
         MedianOf(setups, [](const SetupTimes& s) { return s.warmup + s.oracle; }), "s");
  r->Add("workload.marker_move_ms_p50", Quantile(sink.marker_move_ms, 0.5), "ms");

  // apps
  for (const char* app : {"wc", "grep", "fimgbin", "fimhisto"}) {
    double wall_ms = 0;
    double bytes = 0;
    double ops = 0;
    for (const OpRecord& op : traced.ops) {
      const std::string& v = w.variants()[static_cast<size_t>(op.variant)];
      if (v.compare(0, v.find('.'), app) == 0) {
        wall_ms += op.wall_ms;
        bytes += static_cast<double>(op.bytes);
        ops += 1;
      }
    }
    r->Add(std::string("apps.") + app + ".wall_ns_per_byte", Ratio(wall_ms * 1e6, bytes),
           "ns/byte");
    if (std::string_view(app) == "grep") {
      r->Add("apps.grep.bytes_per_op", Ratio(bytes, ops), "bytes", true);
    }
  }
  r->Add("apps.horspool_ns_per_byte", probe.horspool_ns_per_byte, "ns/byte");
  auto variant_p50 = [&](const std::string& variant) {
    const int idx = VariantIndex(w, variant);
    return idx < 0 ? 0.0 : Quantile(SimMs(traced.ops, traced.ops.size(), idx), 0.5);
  };
  for (const char* v : {"wc.read", "wc.sleds", "wc.mmap_sleds", "wc.program", "grep.read",
                        "grep.sleds", "grep.program", "fimgbin.plain", "fimgbin.sleds",
                        "fimhisto.plain", "fimhisto.sleds", "fimhisto.program"}) {
    r->Add(std::string("apps.") + v + ".sim_ms_p50", variant_p50(v), "ms", true);
  }
  const std::pair<const char*, const char*> speedups[] = {{"wc", "read"},
                                                          {"grep", "read"},
                                                          {"fimgbin", "plain"},
                                                          {"fimhisto", "plain"}};
  for (const auto& [app, plain] : speedups) {
    const std::string a(app);
    r->Add("apps." + a + ".sleds_speedup",
           Ratio(variant_p50(a + "." + plain), variant_p50(a + ".sleds")), "x", true);
  }

  // sleds
  r->Add("sleds.create_us", probe.picker_create_us, "us");
  r->Add("sleds.next_read_ns", probe.picker_next_read_ns, "ns");
  r->Add("sleds.plan_sections", static_cast<double>(probe.plan_sections), "count", true);

  // kernel
  r->Add("kernel.syscalls_per_op", per_op("proc.syscalls"), "count", true);
  r->Add("kernel.lseek_wall_ns", probe.lseek_ns, "ns");
  r->Add("kernel.read_hit_ns_per_page", probe.read_hit_ns_per_page, "ns/page");
  r->Add("kernel.read_miss_ns_per_page", probe.read_miss_ns_per_page, "ns/page");
  r->Add("kernel.sim_cpu_ms_per_op", per_op("proc.cpu_ns") * 1e-6, "ms", true);
  r->Add("kernel.sim_io_ms_per_op", per_op("proc.io_ns") * 1e-6, "ms", true);
  r->Add("kernel.major_faults_per_op", per_op("proc.major_faults"), "count", true);
  r->Add("kernel.readahead_pages_per_op", per_op("m.kernel.readahead_pages"), "pages", true);
  r->Add("kernel.sled_scan_pages_per_op", per_op("m.kernel.sled_scan_pages"), "pages", true);
  r->Add("kernel.sled_scan_runs_per_op", per_op("m.kernel.sled_scan_runs"), "count", true);
  for (const char* call : {"read", "mmap_read", "prog_run", "write", "fsync", "ioctl_sleds_get"}) {
    const std::string h = std::string("h.syscall.") + call;
    r->Add(std::string("kernel.syscall_sim_us.") + call,
           Ratio(static_cast<double>(Get(S, h + ".sum_ns")) * 1e-3,
                 static_cast<double>(Get(S, h + ".count"))),
           "us", true);
  }
  r->Add("kernel.writeback_pages_per_op", per_op("kstat.pages_written_back"), "pages", true);
  r->Add("kernel.writeback_flush_sim_ms_per_op", Ratio(sum_ms("writeback.flush_time"), n), "ms",
         true);
  r->Add("kernel.io_errors", static_cast<double>(Get(S, "kstat.io_errors")), "count", true);
  r->Add("kernel.io_retries", static_cast<double>(Get(S, "m.kernel.io_retries")), "count", true);
  r->Add("kernel.writeback_lost", static_cast<double>(Get(S, "m.kernel.writeback_lost")), "count",
         true);

  // progs
  r->Add("progs.invocations_per_op", per_op("m.progs.invocations"), "count", true);
  r->Add("progs.bytes_examined_per_op", per_op("m.progs.bytes_examined"), "bytes", true);

  // cache
  const double hits = static_cast<double>(Get(S, "cache.hits"));
  r->Add("cache.hit_ratio", Ratio(hits, hits + static_cast<double>(Get(S, "cache.misses"))),
         "ratio", true);
  r->Add("cache.evictions_per_op", per_op("cache.evictions"), "pages", true);
  r->Add("cache.dirty_evictions_per_op", per_op("cache.dirty_evictions"), "pages", true);

  // fs: page-in device time per storage level, by the level's device name
  r->Add("vfs.resolves_per_op", per_op("m.vfs.resolves"), "count", true);
  const std::pair<const char*, const char*> levels[] = {
      {"nfs", "nfs"}, {"ext2", "disk"}, {"ssd", "ssd"}};
  for (const auto& [fs, device] : levels) {
    const std::string suffix = std::string(".") + device + ".pagein_time.sum_ns";
    double ns = 0;
    for (const auto& [key, value] : S) {
      if (key.rfind("h.level.", 0) == 0 && key.size() > suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
        ns += static_cast<double>(value);
      }
    }
    r->Add(std::string("fs.pagein_sim_ms_per_op.") + fs, Ratio(ns * 1e-6, n), "ms", true);
  }

  // device
  for (const char* dev : {"disk", "nfs", "ssd"}) {
    const std::string m = std::string("m.dev.") + dev;
    const std::string d = std::string("device.") + dev;
    const double mib = static_cast<double>(sled::kMiB);
    r->Add(d + ".reads_per_op", per_op(m + ".reads"), "count", true);
    r->Add(d + ".mib_read_per_op", per_op(m + ".bytes_read") / mib, "MiB", true);
    r->Add(d + ".writes_per_op", per_op(m + ".writes"), "count", true);
    r->Add(d + ".mib_written_per_op", per_op(m + ".bytes_written") / mib, "MiB", true);
    r->Add(d + ".repositions_per_op", per_op(m + ".repositions"), "count", true);
    const std::string h = std::string("dev.") + dev;
    r->Add(d + ".busy_sim_ms_per_op",
           Ratio(sum_ms(h + ".read_time") + sum_ms(h + ".write_time"), n), "ms", true);
  }

  // obs, fits
  r->Add("obs.trace_events_per_op", per_op("trace.total"), "count", true);
  r->Add("fits.decode_ns_per_pixel", probe.decode_ns_per_pixel, "ns/pixel");

  // shard: medians over the traced passes
  std::vector<double> run_ms, imbalance, efficiency, overhead;
  double waits = 0;
  for (const TraceSink::ShardPass& p : sink.shard_passes) {
    double busy_sum = 0;
    double busy_max = 0;
    for (double b : p.busy_ms) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    const double shards = static_cast<double>(p.busy_ms.size());
    run_ms.push_back(p.run_ms);
    imbalance.push_back(Ratio(busy_max, busy_sum / shards));
    efficiency.push_back(Ratio(busy_sum, p.run_ms * shards));
    overhead.push_back(p.run_ms - busy_max);
    waits += static_cast<double>(p.acquire_waits);
  }
  const bool shard = !sink.shard_passes.empty();
  const std::vector<double> world_ms = shard ? WallMs(traced.ops) : std::vector<double>{};
  r->Add("shard.run_wall_ms", Quantile(run_ms, 0.5), "ms");
  r->Add("shard.world_wall_ms_p50", Quantile(world_ms, 0.5), "ms");
  r->Add("shard.world_wall_ms_max", Quantile(world_ms, 1.0), "ms");
  r->Add("shard.busy_imbalance", Quantile(imbalance, 0.5), "ratio");
  r->Add("shard.efficiency", Quantile(efficiency, 0.5), "ratio");
  r->Add("shard.overhead_ms", Quantile(overhead, 0.5), "ms");
  r->Add("shard.acquire_waits", Ratio(waits, static_cast<double>(run_ms.size())), "count");

  // bench
  r->Add("bench.trace_overhead",
         Ratio(Quantile(WallMs(traced.ops), 0.5), Quantile(WallMs(untraced.ops), 0.5)), "ratio");
  r->Add("bench.failed_op_ratio", failed_ratio, "ratio", true);
}

void PrintSelfTimes(const Tracer& tracer) {
  std::fprintf(stderr, "span self time (s):\n");
  for (const auto& [name, s] : tracer.SelfSecondsByName()) {
    std::fprintf(stderr, "  %-24s %10.4f\n", name.c_str(), s);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--ops <n>] [--tiny] [--spans <file>]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload, {args.seed, args.tiny});
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload& w = *workload;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.tiny ? " tiny" : "");

  // Set up three times and report the median; the ops run on the last one.
  TraceSink sink;
  std::vector<SetupTimes> setups;
  int64_t failed = 0;
  for (int i = 0; i < 3; ++i) {
    setups.push_back(w.Setup(args.trace ? &sink.tracer : nullptr));
    failed += setups.back().warmup_failed;
  }

  Report report;
  int64_t attempted = 0;
  if (!args.trace) {
    const int64_t batch = w.batch_ops();
    const int64_t sample = ((args.ops > 0 ? args.ops : w.sample_ops()) + batch - 1) / batch * batch;
    // Every op of the cycle is timed at least kMinCycles times, or once with
    // --ops.
    const int64_t cycle = w.cycle_ops();
    const int64_t min_ops = std::max(sample, (args.ops > 0 ? 1 : kMinCycles) * cycle);
    const Phase ph = RunPhase(w, args.seconds, min_ops, nullptr);
    attempted = static_cast<int64_t>(ph.ops.size());
    failed += Failed(ph.ops);
    EndToEnd(setups, ph, static_cast<size_t>(batch), static_cast<size_t>(cycle),
             static_cast<size_t>(sample), &report);
  } else {
    const int64_t min_ops = args.ops > 0 ? args.ops : w.batch_ops();
    const Phase untraced = RunPhase(w, args.seconds / 2, min_ops, nullptr);
    const Phase traced = RunPhase(w, args.seconds / 2, min_ops, &sink);
    ProbeResults probe;
    {
      SpanScope s(&sink.tracer, "probes");
      probe = w.Probe();
    }
    attempted = static_cast<int64_t>(untraced.ops.size() + traced.ops.size());
    failed += Failed(untraced.ops) + Failed(traced.ops);
    PerLayer(w, setups, untraced, traced, sink, probe,
             Ratio(static_cast<double>(failed), static_cast<double>(attempted)), &report);
    PrintSelfTimes(sink.tracer);
    if (!args.spans.empty() && !sink.tracer.WriteCsv(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
      return 1;
    }
  }

  bool finite = true;
  std::string deterministic;
  for (const Metric& m : report.metrics()) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
    if (m.deterministic) {
      deterministic += " " + m.name;
    }
  }
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric is not finite\n");
  }
  std::printf("failed_op_ratio %.6g (%lld of %lld ops)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::printf("# deterministic:%s\n", deterministic.c_str());
  const bool correct = failed == 0 && finite;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
