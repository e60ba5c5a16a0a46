// Serpentine tape model and a robotic autochanger (jukebox).
//
// The paper motivates SLEDs with hierarchical storage management, where data
// latency spans eleven orders of magnitude "up to hundreds of seconds for
// tape mount and seek" (§1), and cites the Hillyer/Silberschatz and
// Sandstå/Midstraum serpentine-tape locate models as natural SLEDs library
// components (§2). This is a simplified locate-time model in that lineage:
//
//   * The tape records `num_tracks` longitudinal tracks, laid out serpentine:
//     even tracks run forward, odd tracks run backward.
//   * Locate cost = fixed overhead + longitudinal distance / locate speed
//     + per-track-switch head realignment.
//   * An unmounted tape pays load+thread time before any access; unloading
//     rewinds first.
//
// The Autochanger holds a set of tapes in slots and a smaller set of drives;
// accessing a tape that is not mounted costs a robot exchange (plus eviction
// of the least-recently-used mounted tape when all drives are busy).
#ifndef SLEDS_SRC_DEVICE_TAPE_DEVICE_H_
#define SLEDS_SRC_DEVICE_TAPE_DEVICE_H_

#include <memory>
#include <vector>

#include "src/device/device.h"

namespace sled {

struct TapeDeviceConfig {
  int64_t capacity_bytes = 20LL * 1000 * 1000 * 1000;  // DLT-class cartridge
  int num_tracks = 64;
  double read_bandwidth_bps = 1.5e6;
  double locate_bandwidth_bps = 150.0e6;  // high-speed locate, in bytes of track distance
  Duration locate_overhead = Seconds(2);
  Duration track_switch = MillisecondsF(500);
  Duration load_time = Seconds(40);    // insert + thread + calibrate
  Duration rewind_max = Seconds(90);   // full-length rewind
};

class TapeDevice final : public StorageDevice {
 public:
  explicit TapeDevice(TapeDeviceConfig config, std::string name = "tape");

  DeviceCharacteristics Nominal() const override;
  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

  bool mounted() const { return mounted_; }

  // Explicit mount/unmount for autochanger control. Mount() threads the tape
  // (no-op if already mounted); Unmount() rewinds proportionally to the
  // current longitudinal position and unloads.
  Duration Mount();
  Duration Unmount();

  // Locate-only cost from the current position (exposed for find -latency
  // style estimates and tests).
  Duration LocateTime(int64_t target_offset) const;

  // Locate cost between two logical positions under a given geometry, without
  // needing a device instance — the building block for locate-aware request
  // scheduling (Hillyer/Silberschatz, Sandstå/Midstraum).
  static Duration LocateBetween(const TapeDeviceConfig& config, int64_t from, int64_t to);

  int64_t position() const { return position_; }
  const TapeDeviceConfig& config() const { return config_; }

 protected:
  // Reads and writes stream at one rate.
  AccessCost Cost(int64_t offset, int64_t nbytes, bool writing, Rng* draw) const override;
  void Advance(int64_t offset, int64_t nbytes, bool /*writing*/) override {
    mounted_ = true;
    position_ = offset + nbytes;
  }

 private:
  TapeDeviceConfig config_;
  bool mounted_ = false;
  // Logical byte position of the head; an unmounted tape sits at the load
  // point (0), where Mount() threads it.
  int64_t position_ = 0;
};

// Robotic media changer: `num_drives` TapeDevice drives fed from a library of
// tapes. Tapes are addressed by index.
class Autochanger {
 public:
  Autochanger(int num_tapes, int num_drives, TapeDeviceConfig tape_config,
              Duration exchange_time = Seconds(10));

  // Service time for accessing bytes on tape `tape_index`, including any
  // robot exchange and mount required to get the tape into a drive. Fails
  // only when the tape's fault plan rejects the transfer; the mechanical
  // mount/exchange work preceding a failed transfer still happened and is
  // charged via the tape's next successful access (fail-fast contract).
  Result<Duration> Read(int tape_index, int64_t offset, int64_t nbytes) {
    return Transfer(tape_index, offset, nbytes, false);
  }
  Result<Duration> Write(int tape_index, int64_t offset, int64_t nbytes) {
    return Transfer(tape_index, offset, nbytes, true);
  }

  // Estimated service time without changing state.
  Duration Estimate(int tape_index, int64_t offset, int64_t nbytes) const;

  bool IsMounted(int tape_index) const;
  // Attach an observability sink to every tape in the library.
  void AttachObserver(Observer* obs);
  // Library-wide health for SLED construction: the conservative composition
  // (CombineHealth) over every tape. Per-level SLED granularity cannot name
  // the tape a page sits on, so a window on any cartridge degrades the tape
  // levels — the honest summary for a consumer deciding whether to recall.
  DeviceHealth Health() const;
  int num_tapes() const { return static_cast<int>(tapes_.size()); }
  int num_drives() const { return num_drives_; }
  const TapeDevice& tape(int index) const { return *tapes_[index]; }
  // Mutable access, for fault-plan injection (tests, experiments).
  TapeDevice& tape(int index) { return *tapes_[index]; }
  int64_t exchanges() const { return exchanges_; }

 private:
  // Ensures the tape is mounted, returns the positioning cost (0 if already
  // in a drive). Updates drive LRU order.
  Duration EnsureMounted(int tape_index);
  // The one body behind Read and Write: exchange and mount, then the
  // tape's own transfer.
  Result<Duration> Transfer(int tape_index, int64_t offset, int64_t nbytes, bool writing);

  std::vector<std::unique_ptr<TapeDevice>> tapes_;
  int num_drives_;
  Duration exchange_time_;
  std::vector<int> mounted_lru_;  // tape indices, most recently used last
  int64_t exchanges_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_TAPE_DEVICE_H_
