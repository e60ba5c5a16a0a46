// Network storage model: an NFS-style remote store. A fresh request stream
// pays the full round-trip-plus-server-disk latency; a sequential
// continuation is served from server readahead at wire bandwidth. Matches the
// paper's NFS testbed (Table 2: 270 ms first-byte, 1.0 MB/s — lmbench numbers
// over 10 Mb ethernet with server disk in the path).
#ifndef SLEDS_SRC_DEVICE_NETWORK_DEVICE_H_
#define SLEDS_SRC_DEVICE_NETWORK_DEVICE_H_

#include "src/device/device.h"

namespace sled {

struct NetworkDeviceConfig {
  int64_t capacity_bytes = 4LL * 1024 * 1024 * 1024;
  Duration first_byte_latency = Milliseconds(270);
  double bandwidth_bps = 1.0e6;
  // Per-RPC cost even within a server-readahead stream (request send, server
  // wakeup, reply header) — the component kernel readahead amortizes.
  Duration per_request_overhead = Milliseconds(2);
  // Fractional jitter on the latency component (network queueing, server
  // cache state); 0 disables.
  double latency_jitter = 0.15;
  uint64_t seed = 3;
};

class NetworkDevice final : public StorageDevice {
 public:
  explicit NetworkDevice(NetworkDeviceConfig config, std::string name = "nfs")
      : StorageDevice(std::move(name), config.seed), config_(config) {}

  DeviceCharacteristics Nominal() const override {
    // The first-byte latency carries symmetric uniform jitter, so quantile p
    // sits at 1 + jitter*(2p - 1) times the center.
    const double lat_s = config_.first_byte_latency.ToSeconds();
    auto q = [&](double p) { return lat_s * (1.0 + config_.latency_jitter * (2.0 * p - 1.0)); };
    DeviceCharacteristics c{config_.first_byte_latency, config_.bandwidth_bps,
                            {q(0.50), q(0.90), q(0.99)}};
    return c;
  }

  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

 protected:
  AccessCost Cost(int64_t offset, int64_t nbytes, bool /*writing*/, Rng* draw) const override {
    AccessCost c{config_.per_request_overhead + TransferTime(nbytes, config_.bandwidth_bps),
                 offset != stream_position_};
    if (c.repositions) {
      // A stream break pays the first-byte latency under symmetric jitter,
      // so its mean is the configured latency itself.
      c.time += draw != nullptr
                    ? SecondsF(config_.first_byte_latency.ToSeconds() *
                               (1.0 + config_.latency_jitter * (2.0 * draw->UniformDouble() - 1.0)))
                    : config_.first_byte_latency;
    }
    return c;
  }
  void Advance(int64_t offset, int64_t nbytes, bool /*writing*/) override {
    stream_position_ = offset + nbytes;
  }

 private:
  NetworkDeviceConfig config_;
  int64_t stream_position_ = -1;  // -1: no stream open yet
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_NETWORK_DEVICE_H_
