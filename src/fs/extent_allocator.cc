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

void ExtentAllocator::Append(std::vector<Extent>& extents, int64_t logical_start,
                             int64_t device_start, int64_t length) const {
  if (!extents.empty()) {
    Extent& last = extents.back();
    if (last.device_start + last.length == device_start && config_.inter_extent_gap_bytes == 0 &&
        last.length + length <= config_.max_extent_bytes) {
      last.length += length;
      return;
    }
  }
  extents.push_back({logical_start, device_start, length});
}

Result<void> ExtentAllocator::Resize(InodeNum ino, int64_t new_size) {
  std::vector<Extent>& extents = extents_[ino];
  const int64_t target = PageCeil(new_size);
  int64_t have = AllocatedSizeOf(extents);

  if (target < have) {
    // Shrink: release the extents past the target.
    while (!extents.empty()) {
      Extent& last = extents.back();
      if (last.logical_start >= target) {
        released_.emplace(last.device_start, last.length);
        extents.pop_back();
      } else if (last.logical_start + last.length > target) {
        const int64_t keep = target - last.logical_start;
        released_.emplace(last.device_start + keep, last.length - keep);
        last.length = keep;
        break;
      } else {
        break;
      }
    }
    return Result<void>::Ok();
  }

  while (have < target) {
    const int64_t want = std::min(target - have, config_.max_extent_bytes);
    int64_t start = next_free_;
    int64_t length = want;
    if (next_free_ + want <= device_->capacity_bytes()) {
      next_free_ += want + config_.inter_extent_gap_bytes;
    } else if (!released_.empty()) {
      // The bump pointer has reached the end of the device.
      const auto lowest = released_.begin();
      start = lowest->first;
      length = std::min(want, lowest->second);
      const int64_t rest = lowest->second - length;
      released_.erase(lowest);
      if (rest > 0) {
        released_.emplace(start + length, rest);
      }
    } else {
      return Err::kNoSpc;
    }
    Append(extents, have, start, length);
    have += length;
  }
  return Result<void>::Ok();
}

void ExtentAllocator::Free(InodeNum ino) {
  const auto it = extents_.find(ino);
  if (it == extents_.end()) {
    return;
  }
  for (const Extent& e : it->second) {
    released_.emplace(e.device_start, e.length);
  }
  extents_.erase(it);
}

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
