// CD-ROM model: slow, re-clamping seeks and constant-linear-velocity
// streaming. Matches the paper's ISO9660 testbed (Table 2: 130 ms, 2.8 MB/s).
#ifndef SLEDS_SRC_DEVICE_CDROM_DEVICE_H_
#define SLEDS_SRC_DEVICE_CDROM_DEVICE_H_

#include <cmath>

#include "src/device/device.h"

namespace sled {

struct CdRomDeviceConfig {
  int64_t capacity_bytes = 650LL * 1024 * 1024;

  // Seek time grows linearly with distance: a short hop still pays laser
  // settle + CLV respin; a full-stroke seek pays the maximum. Uniform-average
  // = min + slope/2 = 130 ms with the defaults.
  Duration min_seek = Milliseconds(80);
  Duration full_stroke_extra = Milliseconds(100);

  double bandwidth_bps = 2.8e6;  // ~18x drive
  // Per-command cost (ATAPI command + ECC pipeline restart).
  Duration per_request_overhead = Milliseconds(1);
  uint64_t seed = 2;
};

class CdRomDevice final : public StorageDevice {
 public:
  explicit CdRomDevice(CdRomDeviceConfig config, std::string name = "cdrom")
      : StorageDevice(std::move(name), config.seed), config_(config) {}

  DeviceCharacteristics Nominal() const override {
    // Seek time is uniform over distance (quantile min + extra*p) and the
    // settle jitter factor has quantile 0.9 + 0.2p; the comonotonic product
    // approximates the combined positioning distribution.
    const double min_s = config_.min_seek.ToSeconds();
    const double extra_s = config_.full_stroke_extra.ToSeconds();
    auto q = [&](double p) { return (min_s + extra_s * p) * (0.9 + 0.2 * p); };
    DeviceCharacteristics c{config_.min_seek + config_.full_stroke_extra / 2,
                            config_.bandwidth_bps,
                            {q(0.50), q(0.90), q(0.99)}};
    return c;
  }

  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

  Duration SeekTime(int64_t from, int64_t to) const {
    const double dist =
        std::abs(static_cast<double>(to - from)) / static_cast<double>(config_.capacity_bytes);
    return config_.min_seek + SecondsF(config_.full_stroke_extra.ToSeconds() * dist);
  }

 protected:
  // Reads and burns (a testbed mastering a disc; IsoFs enforces read-only
  // semantics once sealed) share one cost.
  AccessCost Cost(int64_t offset, int64_t nbytes, bool /*writing*/, Rng* draw) const override {
    AccessCost c{config_.per_request_overhead + TransferTime(nbytes, config_.bandwidth_bps),
                 offset != head_position_};
    if (c.repositions) {
      // Settle time varies a little run to run (laser refocus, CLV respin):
      // the seek scales by 0.9 + 0.2 U, whose mean is 1.
      const Duration seek = SeekTime(head_position_, offset);
      c.time += draw != nullptr ? SecondsF(seek.ToSeconds() * (0.9 + 0.2 * draw->UniformDouble()))
                                : seek;
    }
    return c;
  }
  void Advance(int64_t offset, int64_t nbytes, bool /*writing*/) override {
    head_position_ = offset + nbytes;
  }

 private:
  CdRomDeviceConfig config_;
  int64_t head_position_ = -1;  // -1: position unknown, first access must seek
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_CDROM_DEVICE_H_
