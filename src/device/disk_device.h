// Hard disk model: seek curve, rotational latency, zoned transfer rates,
// sequential streaming detection.
//
// The model follows Ruemmler & Wilkes ("An introduction to disk drive
// modeling", cited by the paper): seek time is a concave function of seek
// distance, a repositioning access pays seek plus rotational latency, and a
// sequential continuation streams at the zone's media rate. Zoned recording
// (more sectors on outer tracks) follows Van Meter's multi-zone disk
// characterization [Van97], which the paper lists as the planned refinement
// of the single-entry sleds_table.
#ifndef SLEDS_SRC_DEVICE_DISK_DEVICE_H_
#define SLEDS_SRC_DEVICE_DISK_DEVICE_H_

#include "src/device/device.h"

namespace sled {

struct DiskDeviceConfig {
  int64_t capacity_bytes = 9LL * 1000 * 1000 * 1000;  // late-90s 9 GB drive

  // Seek curve: seek(d) = min + (max - min) * sqrt(d), d = fraction of full
  // stroke. Defaults put the uniform-average seek at ~13.8 ms, which with half
  // a 7200 rpm rotation (~4.2 ms) reproduces the paper's Table 2 value of
  // 18 ms average access latency.
  Duration min_seek = MicrosecondsF(1500);
  Duration max_seek = Milliseconds(20);
  double rpm = 7200.0;

  // Fixed per-command cost (controller + bus), paid by every request even
  // when it continues a sequential stream. This is what kernel readahead
  // amortizes.
  Duration per_request_overhead = MicrosecondsF(300);

  // Zoned recording: bandwidth declines linearly from outer to inner zone.
  // Defaults average ~9.0 MB/s (Table 2).
  int num_zones = 8;
  double outer_bandwidth_bps = 9.9e6;
  double inner_bandwidth_bps = 8.1e6;

  uint64_t seed = 1;  // rotational-phase randomness
};

class DiskDevice final : public StorageDevice {
 public:
  explicit DiskDevice(DiskDeviceConfig config, std::string name = "disk");

  DeviceCharacteristics Nominal() const override;
  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

  // Zone media rate at a byte address (exposed for tests and calibration).
  double BandwidthAt(int64_t offset) const;
  int num_zones() const { return config_.num_zones; }
  // Seek time between two byte addresses (head-movement component only).
  Duration SeekTime(int64_t from, int64_t to) const;

  // True when a read at `offset` would continue the current stream and thus
  // pay no positioning cost.
  bool IsSequential(int64_t offset) const { return offset == head_position_; }

 protected:
  AccessCost Cost(int64_t offset, int64_t nbytes, bool writing, Rng* draw) const override;
  void Advance(int64_t offset, int64_t nbytes, bool /*writing*/) override {
    head_position_ = offset + nbytes;
  }

 private:
  Duration RotationPeriod() const { return SecondsF(60.0 / config_.rpm); }

  DiskDeviceConfig config_;
  int64_t head_position_ = -1;  // byte address following the last access (-1: unknown, must position)
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_DISK_DEVICE_H_
