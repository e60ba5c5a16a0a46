// The benchmark's four closed-loop workloads. Each owns its inputs (made from
// the workload seed), its testbed, and the output checks; main.cc owns the
// timing loop and turns what the workloads record into metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  // Tiny inputs for the self-test: same code paths, a fraction of the bytes.
  bool tiny = false;
};

// One op: one app run, or one world of a shard pass.
struct OpRecord {
  int variant = 0;       // index into Workload::variants()
  double wall_ms = 0;    // wall time of the call into the app (or world body)
  double sim_ms = 0;     // simulated elapsed time of the op
  int64_t bytes = 0;     // bytes the app processed (wall_ns_per_byte base)
  bool failed = false;   // returned an error or failed an output check
};

// Wall time of each set-up phase, seconds. A phase a workload lacks stays 0.
struct SetupTimes {
  double total = 0;
  double testbed = 0;
  double generate = 0;
  int64_t generated_bytes = 0;
  std::string generator;  // span name of the generation phase, empty if none
  double warmup = 0;
  int64_t warmup_failed = 0;  // warm-up ops that failed an output check
  double oracle = 0;
};

// Traced-run state handed to RunBatch: spans plus the summed counter deltas
// of every op, and workload-specific wall samples.
struct TraceSink {
  Tracer tracer;
  Counters sums;
  std::vector<double> marker_move_ms;
  // Per shard pass: ShardRuntime::Run wall, per-shard busy time, waits.
  struct ShardPass {
    double run_ms = 0;
    std::vector<double> busy_ms;
    int64_t acquire_waits = 0;
  };
  std::vector<ShardPass> shard_passes;
};

// Wall-clock probes of single public functions, run after the timed ops.
struct ProbeResults {
  double lseek_ns = 0;
  double read_hit_ns_per_page = 0;
  double read_miss_ns_per_page = 0;
  double horspool_ns_per_byte = 0;
  double decode_ns_per_pixel = 0;
  double picker_create_us = 0;
  double picker_next_read_ns = 0;
  int64_t plan_sections = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Variant names, "<app>.<variant>" ("wc.read", "shard.world").
  virtual const std::vector<std::string>& variants() const = 0;
  // Ops per batch: a round of every variant, or one shard pass.
  virtual int64_t batch_ops() const = 0;
  // Ops after which the op schedule repeats, a multiple of batch_ops(): op i
  // and op i + cycle_ops() run the same variant on the same input position
  // (for grep, the same marker move), so they do the same work.
  virtual int64_t cycle_ops() const = 0;
  // Ops over which the simulated-time quantiles are taken; a timed phase
  // always runs at least this many so those quantiles are exact per seed.
  virtual int64_t sample_ops() const = 0;

  // Build everything the first timed op needs, discarding what an earlier
  // Setup built. Spans go to `tracer` when non-null.
  virtual SetupTimes Setup(Tracer* tracer) = 0;
  // Run the next batch, appending one record per op.
  virtual void RunBatch(TraceSink* trace, std::vector<OpRecord>* out) = 0;
  // Time the probes against the state the timed ops left behind.
  virtual ProbeResults Probe() = 0;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
