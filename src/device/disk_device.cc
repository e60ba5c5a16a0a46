#include "src/device/disk_device.h"

#include <cmath>

#include "src/common/log.h"

namespace sled {

DiskDevice::DiskDevice(DiskDeviceConfig config, std::string name)
    : StorageDevice(std::move(name), config.seed), config_(config) {
  SLED_CHECK(config_.capacity_bytes > 0, "disk capacity must be positive");
  SLED_CHECK(config_.num_zones >= 1, "disk needs at least one zone");
  SLED_CHECK(config_.min_seek <= config_.max_seek, "min_seek > max_seek");
}

double DiskDevice::BandwidthAt(int64_t offset) const {
  // Zone index grows toward the inner (slower) tracks. Divide the offset by
  // the zone width instead of multiplying by num_zones: `offset * num_zones`
  // overflows int64 for multi-TB capacities with many zones.
  const int64_t zone_bytes = config_.capacity_bytes / config_.num_zones;
  const int zone = static_cast<int>(offset / zone_bytes);
  const int clamped = zone >= config_.num_zones ? config_.num_zones - 1 : zone;
  if (config_.num_zones == 1) {
    return (config_.outer_bandwidth_bps + config_.inner_bandwidth_bps) / 2.0;
  }
  const double frac = static_cast<double>(clamped) / static_cast<double>(config_.num_zones - 1);
  return config_.outer_bandwidth_bps +
         frac * (config_.inner_bandwidth_bps - config_.outer_bandwidth_bps);
}

Duration DiskDevice::SeekTime(int64_t from, int64_t to) const {
  const double dist = std::abs(static_cast<double>(to - from)) /
                      static_cast<double>(config_.capacity_bytes);
  if (dist == 0.0) {
    return Duration();
  }
  const double min_s = config_.min_seek.ToSeconds();
  const double max_s = config_.max_seek.ToSeconds();
  return SecondsF(min_s + (max_s - min_s) * std::sqrt(dist));
}

DeviceCharacteristics DiskDevice::Nominal() const {
  // Average seek over uniformly random stroke fraction d: E[sqrt(d)] = 2/3.
  const double min_s = config_.min_seek.ToSeconds();
  const double max_s = config_.max_seek.ToSeconds();
  const Duration avg_seek = SecondsF(min_s + (max_s - min_s) * (2.0 / 3.0));
  const Duration half_rotation = RotationPeriod() / 2;
  const double avg_bw =
      (config_.outer_bandwidth_bps + config_.inner_bandwidth_bps) / 2.0;
  // Positioning quantiles, first-order: seek over a uniform stroke fraction d
  // has quantile min + (max-min)*sqrt(p), the rotational delay has quantile
  // p * period; summing per-component quantiles is the standard comonotonic
  // upper-bound approximation for the combined distribution.
  const double period_s = RotationPeriod().ToSeconds();
  auto q = [&](double p) {
    return min_s + (max_s - min_s) * std::sqrt(p) + p * period_s;
  };
  return {avg_seek + half_rotation, avg_bw, {q(0.50), q(0.90), q(0.99)}};
}

AccessCost DiskDevice::Cost(int64_t offset, int64_t nbytes, bool /*writing*/, Rng* draw) const {
  AccessCost c{config_.per_request_overhead + TransferTime(nbytes, BandwidthAt(offset)),
               !IsSequential(offset)};
  if (c.repositions) {
    // Rotational phase is effectively random on a reposition: uniform over
    // one rotation, half a rotation on average.
    c.time += SeekTime(head_position_, offset) +
              (draw != nullptr ? SecondsF(draw->UniformDouble() * RotationPeriod().ToSeconds())
                               : RotationPeriod() / 2);
  }
  return c;
}

}  // namespace sled
