// Differential tests for the shard-per-core runtime (cache_diff_test
// playbook): the single-shard inline oracle is the reference, and N-shard
// runs must reproduce it exactly — per-world simulated times, kernel stat
// deltas, and the merged metrics export are compared byte for byte across
// repeated runs and across shard counts, whichever shard claims each world.
// The multi-shard sweeps race the world cursor and the worker threads over
// real multi-mount kernels; they are the payload of the ThreadSanitizer stage
// in scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/merge.h"
#include "src/shard/shard_runtime.h"
#include "src/workload/shard_world.h"

namespace sled {
namespace {

TEST(ShardRuntime, ReportAggregatesEveryMessage) {
  for (int shards : {1, 3}) {
    ShardRuntime rt(ShardConfig{.shards = shards});
    // 12 worlds x 5 progress reports, wherever each world lands: the
    // per-shard sums still come out exact.
    const RuntimeReport report = rt.Run(12, [](WorldContext& ctx) {
      for (int i = 0; i < 5; ++i) {
        ctx.Progress(/*sim_ns=*/ctx.world_id() + 1, /*syscalls=*/i, /*pages=*/2);
      }
    });
    EXPECT_EQ(report.worlds, 12);
    EXPECT_EQ(report.progress_messages, 60);
    EXPECT_EQ(report.sim_ns_sum, 5 * (12 * 13) / 2);
    EXPECT_EQ(report.syscalls_sum, 12 * (0 + 1 + 2 + 3 + 4));
    EXPECT_EQ(report.pages_sum, 120);
  }
}

// A slow world must not hold back the worlds behind it: while world 0 polls
// for the other seven to finish, the idle shard claims and runs all of them.
TEST(ShardRuntime, IdleShardTakesWorldsQueuedBehindASlowWorld) {
  constexpr int64_t kWorlds = 8;
  std::atomic<int64_t> finished{0};
  bool others_finished = false;  // written by world 0, read after the join
  ShardRuntime rt(ShardConfig{.shards = 2});
  rt.Run(kWorlds, [&](WorldContext& ctx) {
    if (ctx.world_id() != 0) {
      finished.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (finished.load() < kWorlds - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    others_finished = finished.load() == kWorlds - 1;
  });
  EXPECT_TRUE(others_finished);
}

// ---------------------------------------------------------------------------
// Differential harness: randomized world configs, run under different shard
// counts, compared against the shards=1 oracle.

std::vector<ShardWorldConfig> RandomWorldConfigs(uint64_t seed, int worlds) {
  Rng rng(seed);
  std::vector<ShardWorldConfig> configs;
  configs.reserve(static_cast<size_t>(worlds));
  for (int w = 0; w < worlds; ++w) {
    ShardWorldConfig c;
    c.world_id = w;
    c.base_seed = seed;
    c.processes = static_cast<int>(rng.Uniform(1, 3));
    c.files_per_process = static_cast<int>(rng.Uniform(2, 4));
    c.file_kib = rng.Uniform(16, 40) * 4;
    c.ops_per_process = rng.Uniform(16, 48);
    c.cache_pages = rng.Uniform(128, 384);
    configs.push_back(c);
  }
  return configs;
}

struct SweepOutcome {
  std::vector<ShardWorldResult> worlds;
  std::string merged_json;
  int64_t sim_ns_sum = 0;
  int64_t syscalls_sum = 0;
  int64_t pages_sum = 0;
};

SweepOutcome RunSweep(int shards, const std::vector<ShardWorldConfig>& configs) {
  ShardRuntime rt(ShardConfig{.shards = shards});
  SweepOutcome out;
  out.worlds.resize(configs.size());
  // Per-shard accumulators are thread-confined (each indexed slot is touched
  // only by its shard's thread); merged after the join, in shard order.
  std::vector<ObsAccumulator> accs(static_cast<size_t>(rt.shards()));
  const RuntimeReport report =
      rt.Run(static_cast<int64_t>(configs.size()), [&](WorldContext& ctx) {
        const ShardWorldConfig& c = configs[static_cast<size_t>(ctx.world_id())];
        ShardWorldResult r = RunShardWorld(c, &accs[static_cast<size_t>(ctx.shard_id())]);
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

void ExpectSameOutcome(const SweepOutcome& a, const SweepOutcome& b, const char* label) {
  ASSERT_EQ(a.worlds.size(), b.worlds.size()) << label;
  for (size_t w = 0; w < a.worlds.size(); ++w) {
    EXPECT_EQ(a.worlds[w], b.worlds[w]) << label << ": world " << w;
  }
  EXPECT_EQ(a.merged_json, b.merged_json) << label;
  EXPECT_EQ(a.sim_ns_sum, b.sim_ns_sum) << label;
  EXPECT_EQ(a.syscalls_sum, b.syscalls_sum) << label;
  EXPECT_EQ(a.pages_sum, b.pages_sum) << label;
}

// The ShardRuntime(1) inline path is byte-identical to driving the worlds
// directly with no runtime at all.
TEST(ShardDiff, OracleMatchesDirectExecution) {
  const auto configs = RandomWorldConfigs(11, 3);
  std::vector<ShardWorldResult> direct;
  ObsAccumulator direct_acc;
  for (const ShardWorldConfig& c : configs) {
    direct.push_back(RunShardWorld(c, &direct_acc));
  }
  const SweepOutcome oracle = RunSweep(1, configs);
  ASSERT_EQ(direct.size(), oracle.worlds.size());
  for (size_t w = 0; w < direct.size(); ++w) {
    EXPECT_EQ(direct[w], oracle.worlds[w]) << "world " << w;
  }
  EXPECT_EQ(direct_acc.MetricsJson(), oracle.merged_json);
}

// The headline property: merged results are identical across shard counts —
// claiming worlds in any order, onto different threads, must not move a
// single nanosecond of simulated time or a single histogram sample.
TEST(ShardDiff, MergedResultsIdenticalAcrossShardCounts) {
  const auto configs = RandomWorldConfigs(2024, 6);
  const SweepOutcome oracle = RunSweep(1, configs);
  EXPECT_GT(oracle.sim_ns_sum, 0);
  for (int shards : {2, 3, 4}) {
    const SweepOutcome sharded = RunSweep(shards, configs);
    ExpectSameOutcome(oracle, sharded,
                      ("shards=" + std::to_string(shards)).c_str());
  }
}

// Repeated-run stability: the same shard count twice, including the threaded
// paths, reproduces itself exactly.
TEST(ShardDiff, RepeatedRunsAreStable) {
  const auto configs = RandomWorldConfigs(7, 5);
  for (int shards : {1, 4}) {
    const SweepOutcome first = RunSweep(shards, configs);
    const SweepOutcome second = RunSweep(shards, configs);
    ExpectSameOutcome(first, second,
                      ("repeat shards=" + std::to_string(shards)).c_str());
  }
}

// Sanity: the comparison has teeth — a different base seed must change the
// merged outcome.
TEST(ShardDiff, SeedChangesOutcome) {
  const auto a = RunSweep(2, RandomWorldConfigs(100, 4));
  const auto b = RunSweep(2, RandomWorldConfigs(101, 4));
  EXPECT_NE(a.merged_json, b.merged_json);
  EXPECT_NE(a.sim_ns_sum, b.sim_ns_sum);
}

// Histogram merging is order- and partition-independent: any grouping of the
// same samples exports the same JSON. This is the algebra the cross-N
// determinism of merged exports rests on.
TEST(ObsMerge, HistogramMergePartitionIndependent) {
  Rng rng(99);
  std::vector<Duration> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(Nanoseconds(rng.Uniform(0, 50'000'000)));
  }
  const auto merge_in_groups = [&](int groups) {
    std::vector<MetricRegistry> parts(static_cast<size_t>(groups));
    for (size_t i = 0; i < samples.size(); ++i) {
      parts[i % static_cast<size_t>(groups)].Observe("lat", samples[i]);
      parts[i % static_cast<size_t>(groups)].Add("n");
    }
    MetricRegistry total;
    for (const MetricRegistry& part : parts) {
      total.MergeFrom(part);
    }
    return total.ToJson();
  };
  const std::string one = merge_in_groups(1);
  EXPECT_EQ(one, merge_in_groups(2));
  EXPECT_EQ(one, merge_in_groups(3));
  EXPECT_EQ(one, merge_in_groups(7));
}

}  // namespace
}  // namespace sled
