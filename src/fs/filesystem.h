// FileSystem base: the common namespace + content plane every concrete file
// system (ExtFs, IsoFs, NfsFs, HsmFs) shares, and the data-plane interface
// the kernel uses to charge device time and to construct SLEDs.
//
// Split of responsibilities:
//   * namespace + file contents: kept in memory here. Metadata I/O cost is
//     out of scope for the paper's experiments (they measure data-plane
//     reads); file *contents* are real bytes so applications (wc, grep, FITS
//     tools) compute real answers.
//   * data-plane cost: virtual. ReadPagesFromStore/WritePagesToStore charge
//     simulated device time for moving pages between the backing store and
//     the buffer cache; LevelOf reports which storage level currently holds a
//     page, which is exactly what the kernel SLED scan needs (paper §4.1).
#ifndef SLEDS_SRC_FS_FILESYSTEM_H_
#define SLEDS_SRC_FS_FILESYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/device/device.h"
#include "src/sleds/sled.h"  // RankBy (header-only, no library dependency)

namespace sled {

class Observer;

using InodeNum = int64_t;

inline constexpr InodeNum kRootIno = 1;

struct InodeAttr {
  InodeNum ino = 0;
  bool is_dir = false;
  int64_t size = 0;
};

struct DirEntry {
  std::string name;
  InodeNum ino = 0;
  bool is_dir = false;
};

// One storage level of a file system, registered into the kernel sleds_table
// at mount time. `nominal` is the model's own average-case characterization;
// the boot-time calibrator may overwrite the table row with measured values
// (paper §4.1: lmbench fills the table via FSLEDS_FILL).
struct StorageLevelInfo {
  std::string name;
  DeviceCharacteristics nominal;
};

class FileSystem {
 public:
  explicit FileSystem(std::string name);
  virtual ~FileSystem() = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  const std::string& name() const { return name_; }

  // ---- namespace ----
  InodeNum root() const { return kRootIno; }
  Result<InodeNum> Lookup(InodeNum dir, std::string_view child) const;
  Result<InodeNum> CreateFile(InodeNum dir, std::string_view child);
  Result<InodeNum> CreateDir(InodeNum dir, std::string_view child);
  Result<void> Unlink(InodeNum dir, std::string_view child);
  Result<std::vector<DirEntry>> List(InodeNum dir) const;
  Result<InodeAttr> GetAttr(InodeNum ino) const;

  // ---- content plane (real bytes, no cost model) ----
  // Copy in, extending the file as needed; a hole before `offset` reads as
  // zeros. `src` may be a view of this file's own bytes.
  Result<int64_t> WriteBytes(InodeNum ino, int64_t offset, std::span<const char> src);
  Result<void> Truncate(InodeNum ino, int64_t new_size);
  int64_t SizeOf(InodeNum ino) const;

  // Zero-copy view of the whole file's contents: the one way bytes leave the
  // content plane (ReadView, MmapRead, programs). The view is invalidated by
  // any operation that changes the file's size.
  Result<std::string_view> ContentView(InodeNum ino) const;

  // ---- data-plane cost model ----
  virtual bool read_only() const { return false; }
  // Device time to fetch pages [first_page, first_page + count) of `ino` from
  // the backing store into memory.
  virtual Result<Duration> ReadPagesFromStore(InodeNum ino, int64_t first_page,
                                              int64_t count) = 0;
  // Device time to write those pages back.
  virtual Result<Duration> WritePagesToStore(InodeNum ino, int64_t first_page,
                                             int64_t count) = 0;
  // Index (into Levels()) of the storage level currently holding this page.
  virtual int LevelOf(InodeNum ino, int64_t page) const = 0;
  // Number of consecutive pages starting at `page` (at least 1, at most
  // `max_pages`) whose LevelOf equals LevelOf(ino, page). Semantically
  // identical to probing LevelOf page by page; concrete file systems whose
  // geometry makes the answer O(1) override it so the kernel SLED scan costs
  // O(level runs) wall-clock instead of O(pages).
  virtual int64_t LevelRunLen(InodeNum ino, int64_t page, int64_t max_pages) const;
  virtual std::vector<StorageLevelInfo> Levels() const = 0;

  // Which storage level the kernel SLED scan should *advertise* for this
  // page when the consumer ranks by `rank_by`. For single-copy file systems
  // this is LevelOf — the page is where it is. File systems holding several
  // equivalent copies (replication) override it to route: report the replica
  // that minimizes the requested latency statistic, so a rank_by=p99 picker
  // sees the tail-safe copy's estimate rather than the primary's.
  virtual int RouteLevelOf(InodeNum ino, int64_t page, RankBy /*rank_by*/) const {
    return LevelOf(ino, page);
  }

  // Flat device byte address backing `page` of `ino`, or -1 when the file
  // system cannot map pages to a single flat address space (multi-level
  // stores, offline HSM data). The I/O engine's C-LOOK elevator sorts by
  // these addresses and its coalescer requires them to be adjacent.
  virtual int64_t DeviceAddressOf(InodeNum /*ino*/, int64_t /*page*/) const { return -1; }

  // The device whose mechanics service this file system's request queue, or
  // nullptr when no single device dominates (the queue then degrades to FIFO
  // order with nominal-cost planning).
  virtual StorageDevice* PrimaryDevice() { return nullptr; }

  // Health of one *local* storage level, for SLED construction: a level in a
  // down window reports unavailable (its SLED latency balloons so pickers
  // prune or defer it — the paper's degraded-NFS story); a slow window
  // reports latency_factor > 1. Default: always healthy.
  virtual DeviceHealth LevelHealth(int /*local_level*/) const { return DeviceHealth{}; }

  // Is the file system reachable at all right now? Metadata syscalls (Fstat)
  // check this so a down server surfaces as kTimedOut without touching data.
  // Default: always reachable.
  virtual Result<void> CheckAvailable() const { return Result<void>::Ok(); }

  // Perform deferred background work — replica re-sync after an outage
  // window, scrubbing, compaction. Driven by SimKernel::RunMaintenance();
  // returns the device time consumed (charged to the clock, no process).
  // Default: nothing to do.
  virtual Result<Duration> BackgroundMaintenance() { return Duration(); }

  // Attach the kernel's observability sink. Concrete file systems forward
  // the observer to their storage devices; pure instrumentation, no effect
  // on any modeled cost. Called by the VFS at mount time.
  virtual void AttachObserver(Observer* obs) { obs_ = obs; }

 protected:
  Observer* observer() const { return obs_; }

 protected:
  // Allocation hook invoked after any size change (append, truncate). Gives
  // concrete file systems a chance to (de)allocate backing extents.
  virtual Result<void> OnResize(InodeNum ino, int64_t old_size, int64_t new_size) = 0;

  // Subclass override to veto mutation (read-only media): checked before any
  // namespace or content mutation.
  virtual Result<void> CheckWritable() const;

  // Per-inode mutation veto, checked before WriteBytes/Truncate even when no
  // resize happens (HSM: writing an offline file requires an explicit
  // recall first).
  virtual Result<void> CheckInodeWritable(InodeNum /*ino*/) const {
    return Result<void>::Ok();
  }

 private:
  struct Inode {
    bool is_dir = false;
    std::string data;                        // file contents
    std::map<std::string, InodeNum, std::less<>> children;  // directory entries (sorted)
  };

  Result<const Inode*> FindInode(InodeNum ino) const;
  Result<Inode*> FindInode(InodeNum ino);
  Result<InodeNum> CreateNode(InodeNum dir, std::string_view child, bool is_dir);

  std::string name_;
  std::unordered_map<InodeNum, Inode> inodes_;
  InodeNum next_ino_ = kRootIno + 1;
  Observer* obs_ = nullptr;
};

}  // namespace sled

#endif  // SLEDS_SRC_FS_FILESYSTEM_H_
