// Shard worlds: the unit of work the ShardRuntime spreads across cores.
//
// A world is one simulated machine — its own SimKernel with two data mounts
// (ext2 disk at /data, flash at /ssd) — plus a closed-loop population of
// processes running a mixed syscall workload against both mounts. Everything
// a world does is a pure function of (config, base_seed, world_id): the
// shard it lands on, the thread that runs it, and the wall clock never enter
// the simulation, which is what makes N-shard merges comparable to the
// single-shard oracle byte for byte.
#ifndef SLEDS_SRC_WORKLOAD_SHARD_WORLD_H_
#define SLEDS_SRC_WORKLOAD_SHARD_WORLD_H_

#include <cstdint>

#include "src/obs/merge.h"

namespace sled {

struct ShardWorldConfig {
  int64_t world_id = 0;
  uint64_t base_seed = 1;  // per-world streams derive from (base_seed, world_id)
  int shard_id = 0;        // ignored by the simulation; perfbench still sets it

  // Population and footprint.
  int processes = 3;
  int files_per_process = 3;  // alternating between the /data and /ssd mounts
  int64_t file_kib = 192;
  int64_t ops_per_process = 120;
  int64_t cache_pages = 1024;
};

// Aggregate outcome of one world. Integer-valued so cross-shard comparisons
// are exact; operator== is what the differential test leans on.
struct ShardWorldResult {
  int64_t world_id = 0;
  int64_t sim_ns = 0;  // final kernel clock
  int64_t syscalls = 0;
  int64_t major_faults = 0;
  int64_t pages_paged_in = 0;
  int64_t pages_written_back = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;

  bool operator==(const ShardWorldResult&) const = default;
};

// Build the world's testbed, run every process's closed-loop mix, flush, and
// absorb the world's Observer into `acc` (skipped when null). `acc` must be
// owned by the calling shard's thread.
ShardWorldResult RunShardWorld(const ShardWorldConfig& config, ObsAccumulator* acc);

}  // namespace sled

#endif  // SLEDS_SRC_WORKLOAD_SHARD_WORLD_H_
