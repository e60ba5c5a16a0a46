// Extent-based block allocation on a flat device address space, shared by the
// concrete file systems. Tracks, per inode, the list of device extents
// backing its pages and charges device time for page-range transfers by
// splitting them into per-extent runs (a run that continues the device's
// current stream pays no positioning cost; see StorageDevice).
//
// Allocation is bump-pointer with a configurable maximum extent length and an
// optional inter-extent gap, which models file-system aging/fragmentation for
// ablation experiments (a fragmented file pays one reposition per extent).
#ifndef SLEDS_SRC_FS_EXTENT_ALLOCATOR_H_
#define SLEDS_SRC_FS_EXTENT_ALLOCATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/device/device.h"
#include "src/fs/filesystem.h"

namespace sled {

struct ExtentAllocatorConfig {
  // Longest contiguous run handed to a single file. Defaults to "effectively
  // contiguous" (modern allocators get close for streaming writes).
  int64_t max_extent_bytes = 1LL << 40;
  // Device bytes skipped between consecutive extents of the same file;
  // non-zero values simulate an aged, fragmented file system.
  int64_t inter_extent_gap_bytes = 0;
  // First usable device byte (reserved area for superblock/metadata).
  int64_t base_offset = kPageSize;
};

class ExtentAllocator {
 public:
  struct Extent {
    int64_t logical_start = 0;  // byte offset within the file
    int64_t device_start = 0;   // byte address on the device
    int64_t length = 0;         // bytes
  };

  ExtentAllocator(StorageDevice* device, ExtentAllocatorConfig config);

  // Grow/shrink the allocation for `ino` to cover `new_size` bytes (rounded
  // up to whole pages). Shrinking frees nothing (bump allocator) but forgets
  // extents beyond the new size. Growing returns kNoSpc when the device is
  // exhausted.
  Result<void> Resize(InodeNum ino, int64_t new_size);

  // Remove all allocation state for an inode.
  void Free(InodeNum ino);

  // Device time to transfer pages [first_page, first_page+count). Walks the
  // extent list; each extent crossing is a separate device access.
  Result<Duration> TransferPages(InodeNum ino, int64_t first_page, int64_t count, bool writing);

  // Device address backing a logical byte offset (for tests/debugging).
  Result<int64_t> DeviceAddressOf(InodeNum ino, int64_t logical_offset) const;

  // Number of extents currently backing the inode.
  int64_t ExtentCountOf(InodeNum ino) const;

  StorageDevice* device() const { return device_; }
  int64_t allocated_bytes() const { return next_free_ - config_.base_offset; }

 private:
  // Allocated (page-aligned) bytes currently backing `ino`.
  int64_t AllocatedSizeOf(const std::vector<Extent>& extents) const;

  StorageDevice* device_;
  ExtentAllocatorConfig config_;
  int64_t next_free_;
  std::unordered_map<InodeNum, std::vector<Extent>> extents_;
};

}  // namespace sled

#endif  // SLEDS_SRC_FS_EXTENT_ALLOCATOR_H_
