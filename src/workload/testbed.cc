#include "src/workload/testbed.h"

#include "src/common/log.h"
#include "src/device/cdrom_device.h"
#include "src/device/disk_device.h"
#include "src/device/network_device.h"
#include "src/fs/extent_file_system.h"

namespace sled {

std::string_view StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kDisk:
      return "ext2";
    case StorageKind::kCdRom:
      return "cdrom";
    case StorageKind::kNfs:
      return "nfs";
    case StorageKind::kHsm:
      return "hsm";
  }
  return "?";
}

void Testbed::FinishMastering() {
  auto* iso = dynamic_cast<IsoFs*>(kernel->vfs().FsById(data_fs_id));
  if (iso != nullptr) {
    kernel->DropCaches();  // flush mastering writes to the medium
    iso->Seal();
  }
}

Testbed MakeTestbed(const TestbedConfig& config) {
  Testbed tb;
  tb.kind = config.kind;
  KernelConfig kc;
  kc.cache.capacity_pages = config.cache_pages;
  kc.cache.policy = config.cache_policy;
  kc.memory = config.memory;
  kc.min_readahead_pages = config.min_readahead_pages;
  kc.max_readahead_pages = config.max_readahead_pages;
  kc.io = config.io;
  tb.kernel = std::make_unique<SimKernel>(kc);

  // Small system disk at /.
  DiskDeviceConfig sys_disk;
  sys_disk.capacity_bytes = 2LL * 1000 * 1000 * 1000;
  sys_disk.seed = config.seed * 11 + 1;
  auto root = std::make_unique<ExtFs>("sys", std::make_unique<DiskDevice>(sys_disk, "sys-disk"));
  SLED_CHECK(tb.kernel->Mount("/", std::move(root)).ok(), "mounting / failed");

  std::unique_ptr<FileSystem> data;
  switch (config.kind) {
    case StorageKind::kDisk: {
      DiskDeviceConfig dc;
      dc.seed = config.seed * 11 + 2;
      data = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(dc), config.alloc);
      break;
    }
    case StorageKind::kCdRom: {
      CdRomDeviceConfig cc;
      cc.seed = config.seed * 11 + 3;
      data = std::make_unique<IsoFs>("cdrom", std::make_unique<CdRomDevice>(cc), config.alloc);
      break;
    }
    case StorageKind::kNfs: {
      NetworkDeviceConfig nc;
      nc.seed = config.seed * 11 + 4;
      data = std::make_unique<NfsFs>("nfs", std::make_unique<NetworkDevice>(nc), config.alloc);
      break;
    }
    case StorageKind::kHsm: {
      HsmFsConfig hc = config.hsm;
      hc.staging_disk.seed = config.seed * 11 + 5;
      data = std::make_unique<HsmFs>("hsm", hc);
      break;
    }
  }
  auto mounted = tb.kernel->Mount(tb.data_dir, std::move(data));
  SLED_CHECK(mounted.ok(), "mounting %s failed", tb.data_dir.c_str());
  tb.data_fs_id = mounted.value();
  return tb;
}

Testbed MakeUnixTestbed(StorageKind kind, uint64_t seed) {
  TestbedConfig config;
  config.kind = kind;
  config.seed = seed;
  return MakeTestbed(config);
}

Testbed MakeLheasoftTestbed(uint64_t seed) {
  TestbedConfig config;
  config.kind = StorageKind::kDisk;
  config.seed = seed;
  // Table 3: memory 210 ns / 87 MB/s, disk 16.5 ms / 7.0 MB/s.
  config.memory = DeviceCharacteristics{Nanoseconds(210), 87.0e6, {}};
  // Seek curve averaging ~12.3 ms + half a 7200 rpm rotation ~= 16.5 ms.
  Testbed tb;
  KernelConfig kc;
  kc.cache.capacity_pages = config.cache_pages;
  kc.memory = config.memory;
  tb.kernel = std::make_unique<SimKernel>(kc);
  DiskDeviceConfig sys_disk;
  sys_disk.capacity_bytes = 2LL * 1000 * 1000 * 1000;
  sys_disk.seed = seed * 13 + 1;
  auto root = std::make_unique<ExtFs>("sys", std::make_unique<DiskDevice>(sys_disk, "sys-disk"));
  SLED_CHECK(tb.kernel->Mount("/", std::move(root)).ok(), "mounting / failed");
  DiskDeviceConfig dc;
  dc.min_seek = MicrosecondsF(1200);
  dc.max_seek = MillisecondsF(18.0);
  dc.outer_bandwidth_bps = 7.7e6;
  dc.inner_bandwidth_bps = 6.3e6;
  dc.seed = seed * 13 + 2;
  auto data = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(dc));
  auto mounted = tb.kernel->Mount(tb.data_dir, std::move(data));
  SLED_CHECK(mounted.ok(), "mounting /data failed");
  tb.data_fs_id = mounted.value();
  tb.kind = StorageKind::kDisk;
  return tb;
}

Testbed MakeHsmTestbed(uint64_t seed) {
  TestbedConfig config;
  config.kind = StorageKind::kHsm;
  config.seed = seed;
  config.hsm.staging_disk.capacity_bytes = 9LL * 1000 * 1000 * 1000;
  config.hsm.staging_capacity_bytes = 512LL * 1024 * 1024;
  config.hsm.num_tapes = 8;
  config.hsm.num_drives = 1;
  return MakeTestbed(config);
}

}  // namespace sled
