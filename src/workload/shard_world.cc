#include "src/workload/shard_world.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/workload/testbed.h"

namespace sled {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Independent stream derivation. Chaining through SplitMix64 keeps every
// (world, process) stream decorrelated from its neighbors while staying a
// pure function of the inputs — no shard id, no thread id.
uint64_t DeriveSeed(uint64_t base, uint64_t salt) { return SplitMix64(base ^ SplitMix64(salt)); }

std::string FilePath(int64_t world, int process, int file) {
  // Odd file indexes live on flash, even on the disk mount: every process
  // exercises both mounts.
  std::string path = (file % 2 == 0) ? "/data/w" : "/ssd/w";
  path += std::to_string(world);
  path += 'p';
  path += std::to_string(process);
  path += 'f';
  path += std::to_string(file);
  return path;
}

}  // namespace

ShardWorldResult RunShardWorld(const ShardWorldConfig& config, ObsAccumulator* acc) {
  SLED_CHECK(config.processes >= 1 && config.files_per_process >= 1 &&
                 config.ops_per_process >= 1 && config.file_kib >= 4,
             "degenerate shard world config");
  const uint64_t world_seed = DeriveSeed(config.base_seed, static_cast<uint64_t>(config.world_id));

  TestbedConfig tc;
  tc.kind = StorageKind::kDisk;
  tc.cache_pages = config.cache_pages;
  tc.seed = world_seed | 1;
  Testbed tb = MakeTestbed(tc);
  SimKernel& kernel = *tb.kernel;

  // Second data mount: a flash file system at /ssd, so SLED scans and
  // writeback see two storage levels with different cost structure.
  SsdDeviceConfig ssd_cfg;
  ssd_cfg.capacity_bytes = 64LL * 1024 * 1024;
  ssd_cfg.seed = DeriveSeed(world_seed, 0x55d);
  SLED_CHECK(
      kernel.Mount("/ssd", std::make_unique<ExtFs>("ssd", std::make_unique<SsdDevice>(ssd_cfg)))
          .ok(),
      "mounting /ssd failed");

  const int64_t file_bytes = config.file_kib * kKiB;
  std::vector<Process*> procs;
  procs.reserve(static_cast<size_t>(config.processes));
  std::string chunk(16 * kKiB, 'x');
  for (int p = 0; p < config.processes; ++p) {
    Process& proc = kernel.CreateProcess("w" + std::to_string(config.world_id) + ".p" +
                                         std::to_string(p));
    procs.push_back(&proc);
    for (int f = 0; f < config.files_per_process; ++f) {
      const std::string path = FilePath(config.world_id, p, f);
      auto fd = kernel.Create(proc, path);
      SLED_CHECK(fd.ok(), "create %s failed", path.c_str());
      for (int64_t written = 0; written < file_bytes;) {
        const int64_t n = std::min<int64_t>(static_cast<int64_t>(chunk.size()),
                                            file_bytes - written);
        auto w = kernel.Write(proc, fd.value(), std::span<const char>(chunk.data(),
                                                                      static_cast<size_t>(n)));
        SLED_CHECK(w.ok(), "populate write failed");
        written += w.value();
      }
      SLED_CHECK(kernel.Close(proc, fd.value()).ok(), "close failed");
    }
  }

  // Closed-loop mixed op stream per process. Individual operations may fail
  // under an active fault plan (check.sh's fault smoke runs the whole suite
  // with SLEDS_FAULT_SEED set); failures are part of the simulated outcome,
  // not harness errors, so results just absorb them.
  std::vector<char> read_buf(32 * kKiB);
  std::string write_buf(8 * kKiB, 'y');
  for (int p = 0; p < config.processes; ++p) {
    Process& proc = *procs[p];
    Rng rng(DeriveSeed(world_seed, 0x1000 + static_cast<uint64_t>(p)));
    for (int64_t op = 0; op < config.ops_per_process; ++op) {
      const int f = static_cast<int>(rng.Uniform(0, config.files_per_process - 1));
      const std::string path = FilePath(config.world_id, p, f);
      auto fd = kernel.Open(proc, path);
      if (!fd.ok()) {
        continue;
      }
      const int64_t page_off = rng.Uniform(0, std::max<int64_t>(file_bytes / kPageSize - 1, 0));
      const int64_t offset = page_off * kPageSize;
      const int roll = static_cast<int>(rng.Uniform(0, 99));
      if (roll < 45) {
        // Sequential chunk read from a random aligned start.
        (void)kernel.Lseek(proc, fd.value(), offset, Whence::kSet);
        (void)kernel.Read(proc, fd.value(),
                          std::span<char>(read_buf.data(), read_buf.size()));
      } else if (roll < 65) {
        // Point read.
        (void)kernel.Lseek(proc, fd.value(), offset, Whence::kSet);
        (void)kernel.Read(proc, fd.value(), std::span<char>(read_buf.data(), kPageSize));
      } else if (roll < 85) {
        // Dirtying overwrite; pages reach the device through writeback.
        (void)kernel.Lseek(proc, fd.value(), offset, Whence::kSet);
        (void)kernel.Write(proc, fd.value(),
                           std::span<const char>(write_buf.data(), write_buf.size()));
      } else if (roll < 92) {
        // Ranged SLED scan over the tail from the chosen offset.
        (void)kernel.IoctlSledsGet(proc, fd.value(), offset, file_bytes - offset);
      } else if (roll < 97) {
        (void)kernel.Fsync(proc, fd.value());
      } else {
        (void)kernel.Fstat(proc, fd.value());
        (void)kernel.ReadDir(proc, f % 2 == 0 ? "/data" : "/ssd");
      }
      (void)kernel.Close(proc, fd.value());
    }
  }
  kernel.FlushAllDirty();

  ShardWorldResult result;
  result.world_id = config.world_id;
  result.sim_ns = kernel.clock().Now().since_epoch().nanos();
  for (const Process* proc : procs) {
    result.syscalls += proc->stats().syscalls;
    result.major_faults += proc->stats().major_faults;
    result.bytes_read += proc->stats().bytes_read;
    result.bytes_written += proc->stats().bytes_written;
  }
  result.pages_paged_in = kernel.stats().pages_paged_in;
  result.pages_written_back = kernel.stats().pages_written_back;
  if (acc != nullptr) {
    acc->Absorb(kernel.obs());
  }
  return result;
}

}  // namespace sled
