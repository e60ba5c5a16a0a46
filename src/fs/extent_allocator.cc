#include "src/fs/extent_allocator.h"

#include <algorithm>

#include "src/common/log.h"

namespace sled {

ExtentAllocator::ExtentAllocator(StorageDevice* device, ExtentAllocatorConfig config)
    : device_(device), config_(config), next_free_(config.base_offset) {
  SLED_CHECK(device_ != nullptr, "extent allocator needs a device");
  SLED_CHECK(config_.max_extent_bytes >= kPageSize, "max extent below page size");
}

int64_t ExtentAllocator::AllocatedSizeOf(const std::vector<Extent>& extents) const {
  int64_t total = 0;
  for (const Extent& e : extents) {
    total += e.length;
  }
  return total;
}

Result<void> ExtentAllocator::Resize(InodeNum ino, int64_t new_size) {
  std::vector<Extent>& extents = extents_[ino];
  const int64_t target = PageCeil(new_size);
  int64_t have = AllocatedSizeOf(extents);

  if (target < have) {
    // Shrink: trim extents past the target; freed space is not reused.
    while (!extents.empty()) {
      Extent& last = extents.back();
      if (last.logical_start >= target) {
        extents.pop_back();
      } else if (last.logical_start + last.length > target) {
        last.length = target - last.logical_start;
        break;
      } else {
        break;
      }
    }
    return Result<void>::Ok();
  }

  while (have < target) {
    const int64_t want = std::min(target - have, config_.max_extent_bytes);
    if (next_free_ + want > device_->capacity_bytes()) {
      return Err::kNoSpc;
    }
    // Coalesce with the previous extent when device-contiguous.
    if (!extents.empty()) {
      Extent& last = extents.back();
      if (last.device_start + last.length == next_free_ &&
          config_.inter_extent_gap_bytes == 0 && last.length + want <= config_.max_extent_bytes) {
        last.length += want;
        next_free_ += want;
        have += want;
        continue;
      }
    }
    extents.push_back({have, next_free_, want});
    next_free_ += want + config_.inter_extent_gap_bytes;
    have += want;
  }
  return Result<void>::Ok();
}

void ExtentAllocator::Free(InodeNum ino) { extents_.erase(ino); }

Result<Duration> ExtentAllocator::TransferPages(InodeNum ino, int64_t first_page, int64_t count,
                                                bool writing) {
  auto it = extents_.find(ino);
  if (it == extents_.end()) {
    return Err::kIo;
  }
  const std::vector<Extent>& extents = it->second;
  int64_t begin = first_page * kPageSize;
  int64_t remaining = count * kPageSize;
  Duration total;
  for (const Extent& e : extents) {
    if (remaining <= 0) {
      break;
    }
    const int64_t e_end = e.logical_start + e.length;
    if (e_end <= begin) {
      continue;
    }
    if (e.logical_start >= begin + remaining) {
      break;
    }
    const int64_t run_start = std::max(begin, e.logical_start);
    const int64_t run_len = std::min(begin + remaining, e_end) - run_start;
    const int64_t dev_off = e.device_start + (run_start - e.logical_start);
    SLED_ASSIGN_OR_RETURN(Duration t, writing ? device_->Write(dev_off, run_len)
                                              : device_->Read(dev_off, run_len));
    total += t;
    begin += run_len;
    remaining -= run_len;
  }
  if (remaining > 0) {
    return Err::kIo;  // range extends past the allocation
  }
  return total;
}

Result<int64_t> ExtentAllocator::DeviceAddressOf(InodeNum ino, int64_t logical_offset) const {
  auto it = extents_.find(ino);
  if (it == extents_.end()) {
    return Err::kIo;
  }
  for (const Extent& e : it->second) {
    if (logical_offset >= e.logical_start && logical_offset < e.logical_start + e.length) {
      return e.device_start + (logical_offset - e.logical_start);
    }
  }
  return Err::kIo;
}

int64_t ExtentAllocator::ExtentCountOf(InodeNum ino) const {
  auto it = extents_.find(ino);
  return it == extents_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

}  // namespace sled
