// Hierarchical storage management file system: a disk staging area in front
// of a robotic tape library.
//
// The paper's headline motivation (§1) is HSM, where latencies span eleven
// orders of magnitude, but its experiments only cover disk/CD/NFS; HSM is
// "expected to benefit more" (§5) and a Linux migrating HSM is named as
// future work (§6). This module builds that testbed:
//
//   * new files are created *staged* on the disk staging area;
//   * Migrate() copies a staged file to a tape and releases its staging
//     space (policy: the tape with most free space);
//   * reading an offline file triggers a *recall* — tape mount + locate +
//     read — and (with stage_on_read) re-stages the whole file on disk,
//     evicting least-recently-used staged files when the staging budget is
//     exceeded;
//   * writes to offline files fail with kNotSup until the caller Recall()s
//     them (the behaviour of classic HSMs).
//
// Storage levels (for SLEDs): 0 = staging disk, 1 = tape mounted in a drive,
// 2 = tape offline in the library. find -latency can therefore distinguish
// "cheap", "seconds", and "minutes" classes of file exactly as §4.3 suggests.
#ifndef SLEDS_SRC_FS_HSM_FS_H_
#define SLEDS_SRC_FS_HSM_FS_H_

#include <list>
#include <memory>
#include <unordered_map>

#include "src/device/disk_device.h"
#include "src/device/tape_device.h"
#include "src/fs/extent_allocator.h"
#include "src/fs/filesystem.h"

namespace sled {

struct HsmFsConfig {
  DiskDeviceConfig staging_disk;
  // Logical staging budget; eviction begins above this. Defaults to the
  // whole staging disk.
  int64_t staging_capacity_bytes = 0;
  int num_tapes = 8;
  int num_drives = 1;
  TapeDeviceConfig tape;
  Duration exchange_time = Seconds(10);
  // Recall the whole file to the staging disk on first read (classic HSM);
  // when false, offline reads stream directly from tape and only the page
  // cache retains them.
  bool stage_on_read = true;
};

class HsmFs final : public FileSystem {
 public:
  explicit HsmFs(std::string name, HsmFsConfig config);

  // ---- FileSystem data plane ----
  Result<Duration> ReadPagesFromStore(InodeNum ino, int64_t first_page, int64_t count) override;
  Result<Duration> WritePagesToStore(InodeNum ino, int64_t first_page, int64_t count) override;
  int LevelOf(InodeNum ino, int64_t page) const override;
  // A file is staged or on tape as a whole: its level is page-independent.
  int64_t LevelRunLen(InodeNum /*ino*/, int64_t /*page*/, int64_t max_pages) const override {
    return max_pages;
  }
  std::vector<StorageLevelInfo> Levels() const override;
  // Staged files map through the staging allocator; offline data has no flat
  // address (-1), so the I/O engine's elevator degrades to FIFO for recalls.
  int64_t DeviceAddressOf(InodeNum ino, int64_t page) const override;
  StorageDevice* PrimaryDevice() override { return staging_device_.get(); }
  // Staging-disk health covers the disk level; both tape levels follow the
  // library's composed health, so a down or slow window on any cartridge
  // inflates (or prunes) the tape-level SLEDs instead of being silently
  // reported healthy.
  DeviceHealth LevelHealth(int local_level) const override {
    if (local_level == kLevelDisk) {
      return staging_device_->Health();
    }
    if (local_level == kLevelTapeNear || local_level == kLevelTapeFar) {
      return changer_.Health();
    }
    return DeviceHealth{};
  }

  // ---- HSM management ----
  // Copy a staged file to tape and release its staging space. Returns the
  // device time consumed. No-op cost if already migrated and clean.
  Result<Duration> Migrate(InodeNum ino);
  // Bring an offline file back to the staging area (explicit recall).
  Result<Duration> Recall(InodeNum ino);

  // Recall several offline files. Files are grouped by tape (the mounted
  // tape's group goes first to avoid a pointless exchange); within each tape
  // the recalls are ordered by the locate-aware scheduler (device/
  // tape_schedule.h) instead of argument order. `scheduled = false` keeps
  // argument order within each tape — the FIFO baseline. Staged files are
  // skipped. Returns total device time.
  Result<Duration> RecallBatch(const std::vector<InodeNum>& inos, bool scheduled = true);

  void AttachObserver(Observer* obs) override {
    FileSystem::AttachObserver(obs);
    staging_device_->AttachObserver(obs);
    changer_.AttachObserver(obs);
  }

  bool IsStaged(InodeNum ino) const;
  bool IsOnTape(InodeNum ino) const;
  // Tape index holding the file's offline copy; -1 if none.
  int TapeOf(InodeNum ino) const;

  Autochanger& changer() { return changer_; }
  const Autochanger& changer() const { return changer_; }
  int64_t staged_bytes() const { return staged_bytes_; }

  static constexpr int kLevelDisk = 0;
  static constexpr int kLevelTapeNear = 1;
  static constexpr int kLevelTapeFar = 2;

 protected:
  Result<void> OnResize(InodeNum ino, int64_t old_size, int64_t new_size) override;
  Result<void> CheckInodeWritable(InodeNum ino) const override {
    const HsmState* s = FindState(ino);
    if (s != nullptr && !s->staged && s->tape_index >= 0) {
      return Err::kNotSup;  // offline: Recall() first
    }
    return Result<void>::Ok();
  }

 private:
  struct HsmState {
    bool staged = false;
    bool staged_dirty = false;  // staged copy differs from (or lacks) a tape copy
    int tape_index = -1;
    int64_t tape_offset = 0;
    int64_t tape_length = 0;  // bytes valid on tape
  };

  HsmState& StateOf(InodeNum ino);
  const HsmState* FindState(InodeNum ino) const;
  void TouchStagedLru(InodeNum ino);
  // Evict LRU staged files until the staging budget holds `need` more bytes.
  // Dirty/unmigrated victims are migrated first (cost accumulates into *t).
  Result<void> MakeStagingRoom(int64_t need, Duration* t);
  // Copy the file's bytes disk->tape. Chooses a tape, appends, updates state.
  Result<Duration> CopyToTape(InodeNum ino);

  HsmFsConfig config_;
  std::unique_ptr<DiskDevice> staging_device_;
  ExtentAllocator staging_;
  Autochanger changer_;
  std::vector<int64_t> tape_free_offset_;  // append position per tape
  std::unordered_map<InodeNum, HsmState> state_;
  std::list<InodeNum> staged_lru_;  // least recently used first
  int64_t staged_bytes_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_FS_HSM_FS_H_
