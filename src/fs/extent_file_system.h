// Shared implementation for single-device, extent-allocated file systems:
// ExtFs (hard disk), IsoFs (CD-ROM, sealed read-only), NfsFs (remote store).
// Each exposes exactly one storage level — the backing device.
#ifndef SLEDS_SRC_FS_EXTENT_FILE_SYSTEM_H_
#define SLEDS_SRC_FS_EXTENT_FILE_SYSTEM_H_

#include <memory>

#include "src/device/disk_device.h"

#include "src/fs/extent_allocator.h"
#include "src/fs/filesystem.h"

namespace sled {

class ExtentFileSystem : public FileSystem {
 public:
  // `per_zone_levels` implements the paper's §4.1 future-work item: "The
  // current implementation keeps only a single entry per device; for better
  // accuracy, entries which account for the different bandwidths of
  // different disk zones will be added in a future version [Van97]." When
  // enabled (and the device is a zoned DiskDevice), every recording zone
  // registers its own sleds_table row and LevelOf maps each page through its
  // device address to the zone actually holding it.
  ExtentFileSystem(std::string name, std::unique_ptr<StorageDevice> device,
                   ExtentAllocatorConfig alloc_config, bool per_zone_levels = false);

  Result<Duration> ReadPagesFromStore(InodeNum ino, int64_t first_page,
                                      int64_t count) override;
  Result<Duration> WritePagesToStore(InodeNum ino, int64_t first_page, int64_t count) override;
  int LevelOf(InodeNum ino, int64_t page) const override;
  int64_t LevelRunLen(InodeNum ino, int64_t page, int64_t max_pages) const override;
  std::vector<StorageLevelInfo> Levels() const override;
  int64_t DeviceAddressOf(InodeNum ino, int64_t page) const override {
    Result<int64_t> addr = allocator_.DeviceAddressOf(ino, page * kPageSize);
    // Not an error swallow: -1 is this interface's documented "no flat
    // address" value (unallocated sparse page), handled by the elevator.
    return addr.ok() ? *addr : -1;
  }
  StorageDevice* PrimaryDevice() override { return device_.get(); }
  // Every level (zoned or not) is the one backing device.
  DeviceHealth LevelHealth(int /*local_level*/) const override { return device_->Health(); }

  void AttachObserver(Observer* obs) override {
    FileSystem::AttachObserver(obs);
    device_->AttachObserver(obs);
  }

  StorageDevice& device() { return *device_; }
  const StorageDevice& device() const { return *device_; }
  ExtentAllocator& allocator() { return allocator_; }
  bool per_zone_levels() const { return zoned_ != nullptr; }

 protected:
  Result<void> OnResize(InodeNum ino, int64_t old_size, int64_t new_size) override;

 private:
  std::unique_ptr<StorageDevice> device_;
  ExtentAllocator allocator_;
  // Non-null when per-zone levels are active; points into *device_.
  const DiskDevice* zoned_ = nullptr;
  int num_zones_ = 1;
};

// ext2-style local disk file system.
class ExtFs final : public ExtentFileSystem {
 public:
  ExtFs(std::string name, std::unique_ptr<StorageDevice> disk,
        ExtentAllocatorConfig alloc_config = {}, bool per_zone_levels = false)
      : ExtentFileSystem(std::move(name), std::move(disk), alloc_config, per_zone_levels) {}
};

// NFS-style remote file system; identical mechanics over a NetworkDevice
// (whose cost model charges RPC latency on stream breaks).
class NfsFs final : public ExtentFileSystem {
 public:
  NfsFs(std::string name, std::unique_ptr<StorageDevice> remote,
        ExtentAllocatorConfig alloc_config = {})
      : ExtentFileSystem(std::move(name), std::move(remote), alloc_config) {}
};

// ISO9660-style mastered medium: writable while being authored, read-only
// after Seal(). Files are laid out contiguously, as on a real pressed disc.
class IsoFs final : public ExtentFileSystem {
 public:
  IsoFs(std::string name, std::unique_ptr<StorageDevice> cdrom,
        ExtentAllocatorConfig alloc_config = {})
      : ExtentFileSystem(std::move(name), std::move(cdrom), alloc_config) {}

  // Finish mastering: all subsequent mutations fail with EROFS.
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }
  bool read_only() const override { return sealed_; }

 protected:
  Result<void> CheckWritable() const override {
    if (sealed_) {
      return Err::kRofs;
    }
    return Result<void>::Ok();
  }

 private:
  bool sealed_ = false;
};

}  // namespace sled

#endif  // SLEDS_SRC_FS_EXTENT_FILE_SYSTEM_H_
