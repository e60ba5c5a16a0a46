#include "src/device/device.h"

#include "src/common/log.h"
#include "src/obs/observer.h"

namespace sled {

void StorageDevice::AttachObserver(Observer* obs) {
  obs_ = obs;
  if (faults_ != nullptr && obs_ != nullptr) {
    faults_->AttachClock(obs_->clock());
  }
}

void StorageDevice::InjectFaults(std::shared_ptr<FaultPlan> plan) {
  faults_ = std::move(plan);
  if (faults_ != nullptr && obs_ != nullptr) {
    faults_->AttachClock(obs_->clock());
  }
}

Result<Duration> StorageDevice::Transfer(int64_t offset, int64_t nbytes, bool writing) {
  SLED_CHECK(offset >= 0 && nbytes > 0 && offset + nbytes <= capacity_bytes(),
             "%s: %s out of range: offset=%lld nbytes=%lld cap=%lld", name_.c_str(),
             writing ? "write" : "read", static_cast<long long>(offset),
             static_cast<long long>(nbytes), static_cast<long long>(capacity_bytes()));
  if (faults_ != nullptr) {
    if (const Err e = faults_->Judge(writing, offset, nbytes); e != Err::kOk) {
      ++(writing ? stats_.write_errors : stats_.read_errors);
      if (obs_ != nullptr) {
        obs_->DeviceError(name_, writing, e);
      }
      return e;
    }
  }
  const AccessCost cost = Cost(offset, nbytes, writing, &rng_);
  Advance(offset, nbytes, writing);
  const Duration t = faults_ != nullptr ? faults_->AdjustServiceTime(cost.time) : cost.time;
  ++(writing ? stats_.writes : stats_.reads);
  (writing ? stats_.bytes_written : stats_.bytes_read) += nbytes;
  stats_.repositions += cost.repositions ? 1 : 0;
  stats_.busy_time += t;
  if (obs_ != nullptr) {
    obs_->DeviceTransfer(name_, writing, offset, nbytes, t, cost.repositions);
  }
  return t;
}

}  // namespace sled
