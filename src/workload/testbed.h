// Testbed construction: simulated machines matching the paper's two
// experimental setups (Tables 2 and 3) plus the HSM extension testbed.
//
// The Unix-utility machine has 64 MB of RAM of which roughly 40 MB is
// available to cache file pages (§5.1: a 128 MB file is "roughly three times
// the size of the portion of memory available to cache file pages"), and its
// data file system lives on a hard disk, a CD-ROM, or an NFS mount with the
// Table 2 characteristics. The LHEASOFT machine is faster (Table 3).
#ifndef SLEDS_SRC_WORKLOAD_TESTBED_H_
#define SLEDS_SRC_WORKLOAD_TESTBED_H_

#include <memory>
#include <string>

#include "src/fs/hsm_fs.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

enum class StorageKind { kDisk, kCdRom, kNfs, kHsm };

std::string_view StorageKindName(StorageKind kind);

struct TestbedConfig {
  StorageKind kind = StorageKind::kDisk;
  // ~40 MiB of 4 KiB pages.
  int64_t cache_pages = 10240;
  ReplacementPolicy cache_policy = ReplacementPolicy::kLru;
  DeviceCharacteristics memory{Nanoseconds(175), 48.0e6, {}};  // Table 2 row 1
  int min_readahead_pages = 4;
  int max_readahead_pages = 32;
  ExtentAllocatorConfig alloc;  // data-FS allocation (fragmentation ablation)
  HsmFsConfig hsm;              // used when kind == kHsm
  IoEngineConfig io;            // I/O engine selection (default: environment)
  uint64_t seed = 1;
};

// A simulated machine: root fs on a small system disk, the data file system
// mounted at /data.
struct Testbed {
  std::unique_ptr<SimKernel> kernel;
  std::string data_dir = "/data";
  uint32_t data_fs_id = 0;
  StorageKind kind = StorageKind::kDisk;

  // Seal the data file system if it is mastered media (IsoFs); no-op
  // otherwise. Call after writing the test files.
  void FinishMastering();
};

Testbed MakeTestbed(const TestbedConfig& config);

// The Table 2 machine with the chosen data device.
Testbed MakeUnixTestbed(StorageKind kind, uint64_t seed);

// The Table 3 machine (memory 210 ns / 87 MB/s, disk 16.5 ms / 7.0 MB/s).
Testbed MakeLheasoftTestbed(uint64_t seed);

// The HSM extension testbed: disk staging area + tape library at /data.
Testbed MakeHsmTestbed(uint64_t seed);

}  // namespace sled

#endif  // SLEDS_SRC_WORKLOAD_TESTBED_H_
