#include "src/device/tape_device.h"

#include <algorithm>
#include <cmath>

#include "src/common/log.h"

namespace sled {

namespace {

int64_t TrackLength(const TapeDeviceConfig& config) {
  return config.capacity_bytes / config.num_tracks;
}

int TrackOf(const TapeDeviceConfig& config, int64_t offset) {
  const int track = static_cast<int>(offset / TrackLength(config));
  return std::min(track, config.num_tracks - 1);
}

// Physical longitudinal position (distance from the load point, in bytes of
// track length) of a logical offset under serpentine layout.
int64_t LongitudinalOf(const TapeDeviceConfig& config, int64_t offset) {
  const int track = TrackOf(config, offset);
  const int64_t within = offset - static_cast<int64_t>(track) * TrackLength(config);
  // Even tracks run load-point -> end; odd tracks run end -> load-point.
  return (track % 2 == 0) ? within : TrackLength(config) - within;
}

}  // namespace

TapeDevice::TapeDevice(TapeDeviceConfig config, std::string name)
    : StorageDevice(std::move(name)), config_(config) {
  SLED_CHECK(config_.num_tracks >= 1, "tape needs at least one track");
  SLED_CHECK(config_.capacity_bytes % config_.num_tracks == 0,
             "tape capacity must divide evenly into tracks");
}

Duration TapeDevice::LocateTime(int64_t target_offset) const {
  return LocateBetween(config_, position_, target_offset);
}

Duration TapeDevice::LocateBetween(const TapeDeviceConfig& config, int64_t from, int64_t to) {
  if (from == to) {
    return Duration();
  }
  const int64_t long_dist = std::abs(LongitudinalOf(config, to) - LongitudinalOf(config, from));
  const int track_switches = std::abs(TrackOf(config, to) - TrackOf(config, from));
  return config.locate_overhead + TransferTime(long_dist, config.locate_bandwidth_bps) +
         config.track_switch * track_switches;
}

Duration TapeDevice::Mount() {
  if (mounted_) {
    return Duration();
  }
  mounted_ = true;
  position_ = 0;
  return config_.load_time;
}

Duration TapeDevice::Unmount() {
  if (!mounted_) {
    return Duration();
  }
  // Rewind time proportional to how far down the tape the head sits.
  const double frac = static_cast<double>(LongitudinalOf(config_, position_)) /
                      static_cast<double>(TrackLength(config_));
  mounted_ = false;
  position_ = 0;
  return SecondsF(config_.rewind_max.ToSeconds() * frac);
}

DeviceCharacteristics TapeDevice::Nominal() const {
  // Average locate: half the tape longitudinally plus half the track switches,
  // plus (amortized) a share of mount time. The paper's sleds_table would hold
  // the externally characterized value; we compute it from the model.
  const Duration avg_locate = config_.locate_overhead +
                              TransferTime(TrackLength(config_) / 2, config_.locate_bandwidth_bps) +
                              config_.track_switch * (config_.num_tracks / 2);
  return {avg_locate, config_.read_bandwidth_bps};
}

AccessCost TapeDevice::Cost(int64_t offset, int64_t nbytes, bool /*writing*/,
                           Rng* /*draw*/) const {
  AccessCost c{TransferTime(nbytes, config_.read_bandwidth_bps), offset != position_};
  if (!mounted_) {
    c.time += config_.load_time;
  }
  if (c.repositions) {
    c.time += LocateTime(offset);
  }
  // A turnaround per track boundary crossed while streaming.
  c.time += config_.track_switch * (TrackOf(config_, offset + nbytes - 1) - TrackOf(config_, offset));
  return c;
}

Autochanger::Autochanger(int num_tapes, int num_drives, TapeDeviceConfig tape_config,
                         Duration exchange_time)
    : num_drives_(num_drives), exchange_time_(exchange_time) {
  SLED_CHECK(num_tapes >= 1 && num_drives >= 1, "autochanger needs tapes and drives");
  tapes_.reserve(static_cast<size_t>(num_tapes));
  for (int i = 0; i < num_tapes; ++i) {
    tapes_.push_back(
        std::make_unique<TapeDevice>(tape_config, "tape" + std::to_string(i)));
  }
}

void Autochanger::AttachObserver(Observer* obs) {
  for (auto& tape : tapes_) {
    tape->AttachObserver(obs);
  }
}

DeviceHealth Autochanger::Health() const {
  DeviceHealth h;
  for (const auto& tape : tapes_) {
    h = CombineHealth(h, tape->Health());
  }
  return h;
}

bool Autochanger::IsMounted(int tape_index) const {
  return std::find(mounted_lru_.begin(), mounted_lru_.end(), tape_index) != mounted_lru_.end();
}

Duration Autochanger::EnsureMounted(int tape_index) {
  SLED_CHECK(tape_index >= 0 && tape_index < num_tapes(), "bad tape index %d", tape_index);
  auto it = std::find(mounted_lru_.begin(), mounted_lru_.end(), tape_index);
  if (it != mounted_lru_.end()) {
    // Already in a drive: refresh LRU position.
    mounted_lru_.erase(it);
    mounted_lru_.push_back(tape_index);
    return Duration();
  }
  Duration t;
  if (static_cast<int>(mounted_lru_.size()) >= num_drives_) {
    const int victim = mounted_lru_.front();
    mounted_lru_.erase(mounted_lru_.begin());
    t += tapes_[victim]->Unmount();
    t += exchange_time_;  // robot puts the victim away
    ++exchanges_;
  }
  t += exchange_time_;  // robot fetches the requested tape
  ++exchanges_;
  t += tapes_[tape_index]->Mount();
  mounted_lru_.push_back(tape_index);
  return t;
}

Result<Duration> Autochanger::Transfer(int tape_index, int64_t offset, int64_t nbytes,
                                       bool writing) {
  Duration t = EnsureMounted(tape_index);
  TapeDevice& tape = *tapes_[tape_index];
  SLED_ASSIGN_OR_RETURN(Duration xfer,
                        writing ? tape.Write(offset, nbytes) : tape.Read(offset, nbytes));
  return t + xfer;
}

Duration Autochanger::Estimate(int tape_index, int64_t offset, int64_t nbytes) const {
  SLED_CHECK(tape_index >= 0 && tape_index < num_tapes(), "bad tape index %d", tape_index);
  Duration t;
  if (!IsMounted(tape_index)) {
    t += exchange_time_;
    if (static_cast<int>(mounted_lru_.size()) >= num_drives_) {
      t += exchange_time_;  // eviction exchange
    }
  }
  return t + tapes_[tape_index]->Estimate(offset, nbytes);
}

}  // namespace sled
