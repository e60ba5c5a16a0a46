// Abstract storage device model.
//
// Devices are *stateful*: the cost of an access depends on the device's
// current mechanical or protocol position (disk head, tape position, stream
// continuation). A sequential continuation costs pure transfer time; a
// repositioning access additionally pays the device's positioning latency.
// This is exactly the dynamic state the paper argues file interfaces hide and
// SLEDs expose (§1).
//
// Addresses are byte offsets into a flat device address space; block/extent
// layout is the file system's concern.
#ifndef SLEDS_SRC_DEVICE_DEVICE_H_
#define SLEDS_SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/device/fault.h"

namespace sled {

class Observer;

// Fixed-quantile summary of a latency distribution, in seconds. The scalar
// `DeviceCharacteristics::latency` stays the mean — every pre-existing
// consumer keeps reading it unchanged — while tail-aware consumers
// (distribution-valued SLEDs, rank_by=p99 pickers) read the quantiles. A
// default-constructed summary (all zeros) means "not characterized":
// consumers fall back to a degenerate distribution at the scalar mean.
struct LatencyQuantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  bool empty() const { return p50 == 0.0 && p90 == 0.0 && p99 == 0.0; }
  static LatencyQuantiles Degenerate(double seconds) { return {seconds, seconds, seconds}; }
  LatencyQuantiles Scaled(double factor) const { return {p50 * factor, p90 * factor, p99 * factor}; }
  friend bool operator==(const LatencyQuantiles&, const LatencyQuantiles&) = default;
};

// Nominal characteristics, the vocabulary of the kernel `sleds_table` (paper
// Tables 2 and 3): latency to the first byte and streaming bandwidth. The
// quantile extension carries the model's positioning-latency *distribution*
// so SLED consumers can rank by tail risk, not just expected value; `latency`
// remains the mean.
struct DeviceCharacteristics {
  Duration latency;
  double bandwidth_bps = 0.0;
  LatencyQuantiles latency_q;

  // The quantile summary, degenerate at the mean when the device model did
  // not characterize its spread (memory, calibrated scalar fills).
  LatencyQuantiles Quantiles() const {
    return latency_q.empty() ? LatencyQuantiles::Degenerate(latency.ToSeconds()) : latency_q;
  }
};

// A level's nominal characterization adjusted for its current health, the
// arithmetic shared by kernel SLED construction and replica routing (both
// must agree, or a router would pick a replica whose SLEDs say otherwise).
// Slow windows scale the whole distribution; GC windows move the mean by
// duty * stall while quantile p absorbs the entire stall whenever duty
// exceeds 1 - p (tail risk lives in the tail). Unavailability is NOT folded
// in here — callers decide between ballooning (SLEDs) and exclusion
// (routing).
struct HealthAdjustedLatency {
  double mean_s = 0.0;
  double bandwidth_bps = 0.0;
  LatencyQuantiles q;
};

inline HealthAdjustedLatency AdjustForHealth(const DeviceCharacteristics& chars,
                                             const DeviceHealth& health) {
  HealthAdjustedLatency out;
  out.mean_s = chars.latency.ToSeconds() * health.latency_factor;
  out.bandwidth_bps = chars.bandwidth_bps / health.latency_factor;
  out.q = chars.Quantiles().Scaled(health.latency_factor);
  if (health.gc_duty > 0.0) {
    const double stall = health.gc_stall_s;
    out.mean_s += health.gc_duty * stall;
    if (health.gc_duty > 0.50) out.q.p50 += stall;
    if (health.gc_duty > 0.10) out.q.p90 += stall;
    if (health.gc_duty > 0.01) out.q.p99 += stall;
  }
  return out;
}

// Running counters every device maintains.
struct DeviceStats {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t repositions = 0;  // accesses that paid positioning latency
  int64_t read_errors = 0;  // reads rejected by the fault plan
  int64_t write_errors = 0;
  Duration busy_time;
};

// What one access costs from a model's current state.
struct AccessCost {
  Duration time;
  bool repositions = false;  // the access pays positioning latency
};

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  // Service time to read/write `nbytes` at byte `offset`. Updates positioning
  // state and stats. Requires 0 <= offset, nbytes > 0,
  // offset + nbytes <= capacity_bytes(). With a fault plan attached the op
  // may instead fail (kIo for media errors, kUnavailable inside a down
  // window); a failed op is fail-fast — no positioning change, no device
  // time, no device-RNG draw — so the failure's simulated cost is whatever
  // the caller's retry policy spends.
  Result<Duration> Read(int64_t offset, int64_t nbytes) { return Transfer(offset, nbytes, false); }
  Result<Duration> Write(int64_t offset, int64_t nbytes) { return Transfer(offset, nbytes, true); }

  // Nominal (average-case) characteristics for the SLEDs table. For seekable
  // media the latency is the average positioning cost, matching what an
  // lmbench-style external characterization would measure.
  virtual DeviceCharacteristics Nominal() const = 0;

  // Estimated service time of a read (or, with `writing`, a write) at
  // `offset` *without* performing it and without changing device state. The
  // kernel uses Nominal() for SLEDs (the paper's implementation, §4.4);
  // Estimate() enables the "more detailed mechanical estimates" extension.
  //
  // Contract: *Estimate is the expectation of the access* (the Read or
  // Write it prices). It holds by construction: both price with the model's
  // one Cost function, the access sampling the model's random term and the
  // estimate taking its mean. Under- or over-counting here would be a
  // systematic bias in every plan a SLED consumer builds.
  Duration Estimate(int64_t offset, int64_t nbytes, bool writing = false) const {
    return Cost(offset, nbytes, writing, nullptr).time;
  }

  virtual int64_t capacity_bytes() const = 0;

  std::string_view name() const { return name_; }
  const DeviceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DeviceStats{}; }

  // Report every transfer to an observability sink (trace event + per-device
  // metrics). Pure instrumentation: attaching an observer never changes any
  // returned service time. Also hands the observer's clock to any fault plan
  // so its down/slow windows become live.
  void AttachObserver(Observer* obs);

  // Install / inspect the fault plan. Passing nullptr detaches (the device
  // becomes infallible again, the default). The plan inherits the observer's
  // clock when one is attached; standalone plans with windows need
  // AttachClock() by hand.
  void InjectFaults(std::shared_ptr<FaultPlan> plan);
  FaultPlan* faults() { return faults_.get(); }
  const FaultPlan* faults() const { return faults_.get(); }

  // Health the device reports upward for SLED construction; healthy when no
  // plan is attached.
  DeviceHealth Health() const { return faults_ != nullptr ? faults_->Health() : DeviceHealth{}; }

 protected:
  // `seed` seeds the model's random term; models without one leave it at 0.
  explicit StorageDevice(std::string name, uint64_t seed = 0)
      : name_(std::move(name)), rng_(seed) {}

  // The model's one pricing function: what an access at `offset` costs from
  // the current state, which it leaves unchanged. A transfer passes the
  // device's Rng as `draw` and the model samples its random term from it;
  // Estimate passes null and the term takes its mean. Each model draws at
  // most once per call, so a transfer's draws stay in op order.
  virtual AccessCost Cost(int64_t offset, int64_t nbytes, bool writing, Rng* draw) const = 0;

  // Moves the model's state past an access Cost just priced: head or stream
  // position, mount, FTL map and GC. Stateless models keep the default.
  virtual void Advance(int64_t /*offset*/, int64_t /*nbytes*/, bool /*writing*/) {}

  // The device's seeded random source, for randomness a model's Advance
  // draws (the SSD's GC victims).
  Rng& rng() { return rng_; }

 private:
  // The one body behind Read and Write: fault judgement, pricing with a live
  // draw, the state update, fault time adjustment, stats and the observer
  // event.
  Result<Duration> Transfer(int64_t offset, int64_t nbytes, bool writing);

  std::string name_;
  DeviceStats stats_;
  Observer* obs_ = nullptr;
  std::shared_ptr<FaultPlan> faults_;
  Rng rng_;
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_DEVICE_H_
