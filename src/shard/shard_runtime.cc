#include "src/shard/shard_runtime.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/log.h"

namespace sled {
namespace {

// One per shard, on its own cache line so shards never write a shared line.
struct alignas(64) ShardTally {
  RuntimeReport report;
};

}  // namespace

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveShardCount(int requested) {
  if (requested > 0) {
    return std::min(requested, 256);
  }
  // One env read for the whole process (thread-safe magic static): kernels
  // and runtimes constructed concurrently on shard threads must not each
  // re-enter libc's environment.
  static const int env_shards = [] {
    const char* env = std::getenv("SLEDS_SHARDS");
    if (env == nullptr) {
      return 0;
    }
    return std::clamp(std::atoi(env), 0, 256);
  }();
  if (env_shards > 0) {
    return env_shards;
  }
  return HardwareThreads();
}

ShardRuntime::ShardRuntime(ShardConfig config) : shards_(ResolveShardCount(config.shards)) {
  SLED_CHECK(shards_ >= 1, "shard count must be >= 1");
}

void WorldContext::Progress(int64_t sim_ns, int64_t syscalls, int64_t pages) {
  ++tally_->progress_messages;
  tally_->sim_ns_sum += sim_ns;
  tally_->syscalls_sum += syscalls;
  tally_->pages_sum += pages;
}

RuntimeReport ShardRuntime::Run(int64_t worlds,
                                const std::function<void(WorldContext&)>& body) {
  SLED_CHECK(worlds >= 0, "negative world count");
  std::vector<ShardTally> tallies(static_cast<size_t>(shards_));
  // Relaxed is enough: the fetch_add hands each world id to exactly one
  // shard, and the join below orders every world's writes before the sums.
  std::atomic<int64_t> next_world{0};
  const auto claim_worlds = [&](int shard) {
    RuntimeReport& tally = tallies[static_cast<size_t>(shard)].report;
    for (int64_t w; (w = next_world.fetch_add(1, std::memory_order_relaxed)) < worlds;) {
      WorldContext ctx(&tally, w, shard);
      body(ctx);
      ++tally.worlds;
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<size_t>(shards_ - 1));
    for (int s = 1; s < shards_; ++s) {
      workers.emplace_back(claim_worlds, s);
    }
    claim_worlds(0);
  }  // jthreads join here

  RuntimeReport report;
  report.shards = shards_;
  for (const ShardTally& t : tallies) {
    report.worlds += t.report.worlds;
    report.progress_messages += t.report.progress_messages;
    report.sim_ns_sum += t.report.sim_ns_sum;
    report.syscalls_sum += t.report.syscalls_sum;
    report.pages_sum += t.report.pages_sum;
  }
  return report;
}

}  // namespace sled
