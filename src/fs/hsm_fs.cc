#include "src/fs/hsm_fs.h"

#include <algorithm>
#include <map>

#include "src/common/log.h"
#include "src/device/tape_schedule.h"

namespace sled {

HsmFs::HsmFs(std::string name, HsmFsConfig config)
    : FileSystem(std::move(name)),
      config_(config),
      staging_device_(std::make_unique<DiskDevice>(config.staging_disk, "hsm-disk")),
      staging_(staging_device_.get(), ExtentAllocatorConfig{}),
      changer_(config.num_tapes, config.num_drives, config.tape, config.exchange_time),
      tape_free_offset_(static_cast<size_t>(config.num_tapes), 0) {
  if (config_.staging_capacity_bytes == 0) {
    config_.staging_capacity_bytes = config_.staging_disk.capacity_bytes;
  }
  staging_device_->InjectFaults(FaultPlan::FromEnv(staging_device_->name()));
}

HsmFs::HsmState& HsmFs::StateOf(InodeNum ino) { return state_[ino]; }

const HsmFs::HsmState* HsmFs::FindState(InodeNum ino) const {
  auto it = state_.find(ino);
  return it == state_.end() ? nullptr : &it->second;
}

bool HsmFs::IsStaged(InodeNum ino) const {
  const HsmState* s = FindState(ino);
  return s != nullptr && s->staged;
}

bool HsmFs::IsOnTape(InodeNum ino) const {
  const HsmState* s = FindState(ino);
  return s != nullptr && s->tape_index >= 0;
}

int HsmFs::TapeOf(InodeNum ino) const {
  const HsmState* s = FindState(ino);
  return s == nullptr ? -1 : s->tape_index;
}

void HsmFs::TouchStagedLru(InodeNum ino) {
  staged_lru_.remove(ino);
  staged_lru_.push_back(ino);
}

Result<Duration> HsmFs::CopyToTape(InodeNum ino) {
  const int64_t size = PageCeil(SizeOf(ino));
  if (size == 0) {
    return Duration();
  }
  // Pick the tape with the most free space.
  int best = -1;
  int64_t best_free = -1;
  for (int i = 0; i < changer_.num_tapes(); ++i) {
    const int64_t free = changer_.tape(i).capacity_bytes() - tape_free_offset_[i];
    if (free >= size && free > best_free) {
      best = i;
      best_free = free;
    }
  }
  if (best < 0) {
    return Err::kNoSpc;
  }
  HsmState& s = StateOf(ino);
  SLED_ASSIGN_OR_RETURN(Duration t,
                        staging_.TransferPages(ino, 0, PagesFor(size), /*writing=*/false));
  SLED_ASSIGN_OR_RETURN(Duration wt, changer_.Write(best, tape_free_offset_[best], size));
  t += wt;
  s.tape_index = best;
  s.tape_offset = tape_free_offset_[best];
  s.tape_length = size;
  s.staged_dirty = false;
  tape_free_offset_[best] += size;
  return t;
}

Result<Duration> HsmFs::Migrate(InodeNum ino) {
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, GetAttr(ino));
  if (attr.is_dir) {
    return Err::kIsDir;
  }
  HsmState& s = StateOf(ino);
  Duration t;
  if (s.staged && (s.staged_dirty || s.tape_index < 0)) {
    SLED_ASSIGN_OR_RETURN(t, CopyToTape(ino));
  }
  if (s.staged) {
    staging_.Free(ino);
    staged_bytes_ -= PageCeil(attr.size);
    staged_lru_.remove(ino);
    s.staged = false;
  }
  return t;
}

Result<void> HsmFs::MakeStagingRoom(int64_t need, Duration* t) {
  while (staged_bytes_ + need > config_.staging_capacity_bytes && !staged_lru_.empty()) {
    const InodeNum victim = staged_lru_.front();
    SLED_ASSIGN_OR_RETURN(Duration mt, Migrate(victim));
    *t += mt;
  }
  if (staged_bytes_ + need > config_.staging_capacity_bytes) {
    return Err::kNoSpc;
  }
  return Result<void>::Ok();
}

Result<Duration> HsmFs::Recall(InodeNum ino) {
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, GetAttr(ino));
  HsmState& s = StateOf(ino);
  if (s.staged) {
    TouchStagedLru(ino);
    return Duration();
  }
  if (s.tape_index < 0) {
    return Err::kIo;  // neither staged nor on tape: no data to recall
  }
  Duration t;
  const int64_t size = PageCeil(attr.size);
  SLED_RETURN_IF_ERROR(MakeStagingRoom(size, &t));
  SLED_ASSIGN_OR_RETURN(Duration tape_t,
                        changer_.Read(s.tape_index, s.tape_offset, std::max<int64_t>(size, 1)));
  t += tape_t;
  SLED_RETURN_IF_ERROR(staging_.Resize(ino, attr.size));
  if (size > 0) {
    SLED_ASSIGN_OR_RETURN(Duration stage_t,
                          staging_.TransferPages(ino, 0, PagesFor(size), /*writing=*/true));
    t += stage_t;
  }
  s.staged = true;
  s.staged_dirty = false;
  staged_bytes_ += size;
  TouchStagedLru(ino);
  return t;
}

Result<Duration> HsmFs::RecallBatch(const std::vector<InodeNum>& inos, bool scheduled) {
  if (!scheduled) {
    // FIFO baseline: serve strictly in argument order — every tape
    // alternation costs a robot exchange and a mount.
    Duration total;
    for (InodeNum ino : inos) {
      const HsmState* s = FindState(ino);
      if (s == nullptr || s->staged || s->tape_index < 0) {
        continue;
      }
      SLED_ASSIGN_OR_RETURN(Duration t, Recall(ino));
      total += t;
    }
    return total;
  }

  // Partition offline files by tape.
  std::map<int, std::vector<InodeNum>> by_tape;
  for (InodeNum ino : inos) {
    const HsmState* s = FindState(ino);
    if (s == nullptr || s->staged || s->tape_index < 0) {
      continue;
    }
    by_tape[s->tape_index].push_back(ino);
  }
  // Serve the currently mounted tape's group first.
  std::vector<int> tape_order;
  for (const auto& [tape, group] : by_tape) {
    tape_order.push_back(tape);
  }
  std::stable_sort(tape_order.begin(), tape_order.end(), [&](int a, int b) {
    return changer_.IsMounted(a) > changer_.IsMounted(b);
  });

  Duration total;
  for (int tape : tape_order) {
    std::vector<InodeNum>& group = by_tape[tape];
    {
      std::vector<TapeRequest> requests;
      requests.reserve(group.size());
      for (InodeNum ino : group) {
        const HsmState& s = StateOf(ino);
        requests.push_back({s.tape_offset, s.tape_length});
      }
      const int64_t start = changer_.IsMounted(tape) ? changer_.tape(tape).position() : 0;
      const std::vector<size_t> order = ScheduleTapeReads(config_.tape, start, requests);
      std::vector<InodeNum> reordered;
      reordered.reserve(group.size());
      for (size_t idx : order) {
        reordered.push_back(group[idx]);
      }
      group = std::move(reordered);
    }
    for (InodeNum ino : group) {
      SLED_ASSIGN_OR_RETURN(Duration t, Recall(ino));
      total += t;
    }
  }
  return total;
}

Result<Duration> HsmFs::ReadPagesFromStore(InodeNum ino, int64_t first_page, int64_t count) {
  HsmState& s = StateOf(ino);
  if (s.staged) {
    TouchStagedLru(ino);
    return staging_.TransferPages(ino, first_page, count, /*writing=*/false);
  }
  if (s.tape_index < 0) {
    return Err::kIo;
  }
  if (config_.stage_on_read) {
    SLED_ASSIGN_OR_RETURN(Duration t, Recall(ino));
    SLED_ASSIGN_OR_RETURN(Duration rt,
                          staging_.TransferPages(ino, first_page, count, /*writing=*/false));
    return t + rt;
  }
  // Direct partial read from tape; only the page cache keeps the data near.
  return changer_.Read(s.tape_index, s.tape_offset + first_page * kPageSize, count * kPageSize);
}

Result<Duration> HsmFs::WritePagesToStore(InodeNum ino, int64_t first_page, int64_t count) {
  HsmState& s = StateOf(ino);
  if (!s.staged) {
    return Err::kNotSup;  // offline file: caller must Recall() first
  }
  s.staged_dirty = true;
  TouchStagedLru(ino);
  return staging_.TransferPages(ino, first_page, count, /*writing=*/true);
}

int HsmFs::LevelOf(InodeNum ino, int64_t /*page*/) const {
  const HsmState* s = FindState(ino);
  if (s == nullptr || s->staged) {
    return kLevelDisk;
  }
  return changer_.IsMounted(s->tape_index) ? kLevelTapeNear : kLevelTapeFar;
}

int64_t HsmFs::DeviceAddressOf(InodeNum ino, int64_t page) const {
  const HsmState* s = FindState(ino);
  if (s == nullptr || !s->staged) {
    return -1;
  }
  Result<int64_t> addr = staging_.DeviceAddressOf(ino, page * kPageSize);
  // Not an error swallow: -1 is this interface's documented "no flat address"
  // value (sparse staging hole), and the elevator degrades to FIFO on it.
  return addr.ok() ? *addr : -1;
}

std::vector<StorageLevelInfo> HsmFs::Levels() const {
  const DeviceCharacteristics tape_near = changer_.tape(0).Nominal();
  DeviceCharacteristics tape_far = tape_near;
  // Offline tape additionally pays robot exchange(s) and load+thread.
  tape_far.latency += config_.exchange_time * 2 + config_.tape.load_time;
  return {{"hsm-disk", staging_device_->Nominal()},
          {"tape-near", tape_near},
          {"tape-far", tape_far}};
}

Result<void> HsmFs::OnResize(InodeNum ino, int64_t old_size, int64_t new_size) {
  HsmState& s = StateOf(ino);
  if (new_size == 0) {
    if (s.staged) {
      staging_.Free(ino);
      staged_bytes_ -= PageCeil(old_size);
      staged_lru_.remove(ino);
    }
    state_.erase(ino);
    return Result<void>::Ok();
  }
  if (!s.staged && s.tape_index >= 0) {
    return Err::kNotSup;  // offline file: Recall() before writing
  }
  Duration ignored;
  const int64_t delta = PageCeil(new_size) - PageCeil(old_size);
  if (delta > 0) {
    SLED_RETURN_IF_ERROR(MakeStagingRoom(delta, &ignored));
  }
  SLED_RETURN_IF_ERROR(staging_.Resize(ino, new_size));
  if (!s.staged) {
    s.staged = true;
  }
  staged_bytes_ += delta;
  s.staged_dirty = true;
  TouchStagedLru(ino);
  return Result<void>::Ok();
}

}  // namespace sled
