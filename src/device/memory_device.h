// Primary-memory "device": the cost model for data already in the file cache.
#ifndef SLEDS_SRC_DEVICE_MEMORY_DEVICE_H_
#define SLEDS_SRC_DEVICE_MEMORY_DEVICE_H_

#include "src/device/device.h"

namespace sled {

struct MemoryDeviceConfig {
  // Paper Table 2 values by default (175 ns, 48 MB/s measured by lmbench).
  Duration latency = Nanoseconds(175);
  double bandwidth_bps = 48.0 * 1e6;
  int64_t capacity_bytes = 64LL * 1024 * 1024;
};

class MemoryDevice final : public StorageDevice {
 public:
  explicit MemoryDevice(MemoryDeviceConfig config, std::string name = "memory")
      : StorageDevice(std::move(name)), config_(config) {}

  DeviceCharacteristics Nominal() const override {
    return {config_.latency, config_.bandwidth_bps, {}};
  }

  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

 protected:
  AccessCost Cost(int64_t /*offset*/, int64_t nbytes, bool /*writing*/,
                  Rng* /*draw*/) const override {
    return {config_.latency + TransferTime(nbytes, config_.bandwidth_bps)};
  }

 private:
  MemoryDeviceConfig config_;
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_MEMORY_DEVICE_H_
