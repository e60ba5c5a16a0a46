// ShardRuntime: the shard-per-core parallel simulation driver.
//
// The simulation scales out as independent *worlds* — each world is a full
// SimKernel with its own clock, page cache, I/O engine, Observer, and RNG
// stream, so worlds never share mutable state. The calling thread is shard 0
// and shards-1 worker threads join it; every shard claims the next unclaimed
// world id from one shared atomic cursor until none remain, so an idle shard
// never waits behind a slow world on another.
//
// Determinism contract:
//   * A world's simulated behavior depends only on its own configuration and
//     seed — never on the shard it ran on, the number of shards, the order
//     worlds were claimed in, or the wall clock. Hence every per-world result
//     (simulated time, fault counts, metric values) is identical across
//     repeated runs and across shard counts.
//   * Everything the runtime aggregates is a commutative sum, so the report is
//     independent of which shard ran which world.
//   * shards == 1 runs every world inline on the calling thread in ascending
//     world-id order — no thread spawned, byte-identical to driving the
//     kernels directly. This is the oracle the differential test compares
//     N-shard runs against.
#ifndef SLEDS_SRC_SHARD_SHARD_RUNTIME_H_
#define SLEDS_SRC_SHARD_SHARD_RUNTIME_H_

#include <cstdint>
#include <functional>

namespace sled {

// Number of hardware threads, never less than 1.
int HardwareThreads();

// Shard-count resolution: a positive `requested` wins; otherwise $SLEDS_SHARDS
// (cached on first read, like $SLEDS_IO_MODE); otherwise the hardware thread
// count. Always >= 1.
int ResolveShardCount(int requested);

struct ShardConfig {
  // <= 0 resolves via ResolveShardCount.
  int shards = 0;
};

// Summed over every shard after the join. Deterministic: commutative sums of
// per-world values.
struct RuntimeReport {
  int shards = 0;
  int64_t worlds = 0;             // worlds run
  int64_t progress_messages = 0;  // WorldContext::Progress calls
  int64_t sim_ns_sum = 0;         // sum of reported sim_ns
  int64_t syscalls_sum = 0;       // sum of reported syscalls
  int64_t pages_sum = 0;          // sum of reported pages
  // Always 0: reporting progress never waits. Kept because perfbench reads it.
  int64_t acquire_waits = 0;
};

// Handed to the world body: identity plus the progress-reporting hook.
class WorldContext {
 public:
  int64_t world_id() const { return world_id_; }
  // The shard running this world. It varies with claim order, so it may index
  // per-shard scratch but must never reach the simulation.
  int shard_id() const { return shard_id_; }

  // Add a completed unit of work to this shard's report.
  void Progress(int64_t sim_ns, int64_t syscalls, int64_t pages);

 private:
  friend class ShardRuntime;
  WorldContext(RuntimeReport* tally, int64_t world_id, int shard_id)
      : tally_(tally), world_id_(world_id), shard_id_(shard_id) {}

  RuntimeReport* tally_;  // the running shard's own slot
  int64_t world_id_;
  int shard_id_;
};

class ShardRuntime {
 public:
  explicit ShardRuntime(ShardConfig config = {});

  int shards() const { return shards_; }

  // Run `body` once per world in [0, worlds) and return the summed report.
  // The body must confine its mutable state to the world (or to per-shard
  // slots indexed by ctx.shard_id()); results should be written to
  // caller-owned per-world slots, which is race-free because each world id
  // runs exactly once and every worker is joined before Run returns.
  RuntimeReport Run(int64_t worlds, const std::function<void(WorldContext&)>& body);

 private:
  int shards_;
};

}  // namespace sled

#endif  // SLEDS_SRC_SHARD_SHARD_RUNTIME_H_
