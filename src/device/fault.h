// Deterministic fault injection for storage devices.
//
// A FaultPlan sits in front of a StorageDevice's Read/Write pricing and
// decides, per operation, whether the op fails and how a successful op's
// service time is distorted. Everything is seeded and draws from the plan's
// own Rng in op order, so a fixed (seed, op sequence) pair always injects the
// same faults — error-path behavior is as replayable as the happy path.
//
// Fault vocabulary (ISSUE: per-op failure probability, transient vs
// persistent media errors, latency spikes, server down/slow windows):
//
//   * probabilistic transient faults — an op fails with `kIo` this attempt;
//     retrying (controller-level or kernel-level) may succeed.
//   * persistent media errors — a probabilistic fault can additionally mark
//     the touched byte range bad; every later op overlapping it fails until
//     the range is repaired (ClearBadRanges). Scripted tests install ranges
//     directly with AddBadRange.
//   * scripted faults — FailNextReads/FailNextWrites force the next N ops to
//     fail regardless of probabilities; the deterministic backbone of the
//     error-path tests.
//   * latency spikes — a successful op's service time is multiplied by
//     spike_factor with probability spike_prob (tail-latency events, cf. the
//     SSD read-variability studies in PAPERS.md).
//   * down/slow windows — clock intervals during which every op fails with
//     `kUnavailable` (down) or runs `factor` times slower (slow). This is the
//     paper's NFS-server-down story: while a window is open the device also
//     reports unhealthy through Health(), so SLEDs balloon their estimates.
//   * GC windows — clock intervals during which a fraction `duty` of ops eat
//     a fixed garbage-collection stall on top of their service time (flash
//     write cliffs, cf. the SSD read-variability study in PAPERS.md). Unlike
//     slow windows this is *tail* distortion: the mean moves by duty*stall
//     while the p99 moves by the full stall, which is what distribution-
//     valued SLEDs exist to express. GC windows never fail ops.
//
// Failures are fail-fast: a faulting op returns its error without touching
// the device model, costing zero simulated device time and zero device-RNG
// draws. The simulated cost of failure handling comes from retry attempts
// and kernel backoff, which keeps time accounting attributable (and keeps a
// masked transient fault byte-identical to no fault at all).
#ifndef SLEDS_SRC_DEVICE_FAULT_H_
#define SLEDS_SRC_DEVICE_FAULT_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"

namespace sled {

// Health summary a device reports upward for SLED construction: when a down
// window is open the level is unavailable; a slow window inflates latency
// and deflates bandwidth by latency_factor; a GC window adds a stall of
// gc_stall_s seconds to a gc_duty fraction of ops (tail inflation — the
// kernel folds it into the SLED quantiles, not just the mean).
struct DeviceHealth {
  bool unavailable = false;
  double latency_factor = 1.0;
  double gc_stall_s = 0.0;
  double gc_duty = 0.0;

  bool degraded() const {
    return unavailable || latency_factor != 1.0 || gc_duty > 0.0;
  }
};

// Conservative composition of two health reports: unavailable if either is,
// the worse slowdown, the worse GC stall, and the combined (sum-capped) GC
// duty. Used wherever one SLED level summarizes several fault sources — a
// plan with overlapping windows, a tape library, a replica set.
inline DeviceHealth CombineHealth(const DeviceHealth& a, const DeviceHealth& b) {
  DeviceHealth h;
  h.unavailable = a.unavailable || b.unavailable;
  h.latency_factor = a.latency_factor > b.latency_factor ? a.latency_factor : b.latency_factor;
  h.gc_stall_s = a.gc_stall_s > b.gc_stall_s ? a.gc_stall_s : b.gc_stall_s;
  h.gc_duty = a.gc_duty + b.gc_duty;
  if (h.gc_duty > 1.0) {
    h.gc_duty = 1.0;
  }
  return h;
}

struct FaultPlanConfig {
  uint64_t seed = 1;
  // Per-op probability that a read/write fails this attempt.
  double read_fault_prob = 0.0;
  double write_fault_prob = 0.0;
  // Given a probabilistic fault, probability it is persistent: the op's byte
  // range is marked bad and keeps failing until repaired.
  double persistent_prob = 0.0;
  // Transient probabilistic faults are retried inside the device up to this
  // many times before one escapes to the caller — the SCSI-style controller
  // retry budget. Escape probability per op is read_fault_prob^(retries+1),
  // so the environment smoke plan (see FromEnv) exercises the fault rolls on
  // every op while letting the tier-1 suite pass unchanged. Scripted faults,
  // bad ranges, and down windows always escape.
  int controller_retries = 0;
  // Latency spikes on successful ops.
  double spike_prob = 0.0;
  double spike_factor = 8.0;
};

struct FaultStats {
  int64_t faults_injected = 0;   // ops that failed (escaped to the caller)
  int64_t transient_masked = 0;  // transient rolls hidden by controller retries
  int64_t persistent_marked = 0; // bad ranges installed by probabilistic faults
  int64_t unavailable_hits = 0;  // ops rejected by a down window
  int64_t spikes = 0;            // successful ops that paid a latency spike
  int64_t gc_stalls = 0;         // successful ops that caught a GC pause
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  // Builds the environment-default smoke plan for `device_name` when
  // $SLEDS_FAULT_SEED is set and nonzero: transient-only faults (probability
  // $SLEDS_FAULT_P, default 0.002) masked by 3 controller retries, seeded per
  // device from the env seed and the device name. Returns nullptr when the
  // variable is unset or zero.
  static std::shared_ptr<FaultPlan> FromEnv(std::string_view device_name);

  // Windows compare against this clock; without one, window checks are
  // inert. (The kernel's devices get the SimClock at mount.)
  void AttachClock(const SimClock* clock) { clock_ = clock; }

  // ---- scripting (tests / experiments) ----
  void AddBadRange(int64_t offset, int64_t length);
  void ClearBadRanges() { bad_ranges_.clear(); }
  void FailNextReads(int n) { forced_read_failures_ += n; }
  void FailNextWrites(int n) { forced_write_failures_ += n; }
  void AddDownWindow(TimePoint start, TimePoint end);
  void AddSlowWindow(TimePoint start, TimePoint end, double factor);
  // While open, each op independently stalls for `stall` with probability
  // `duty` (a GC pause caught mid-flight). Ops never fail.
  void AddGcWindow(TimePoint start, TimePoint end, Duration stall, double duty);

  // Consulted by StorageDevice::Read/Write *before* pricing. kOk means
  // proceed; any other code fails the op fail-fast (no device time, no
  // device-model state change).
  Err Judge(bool write, int64_t offset, int64_t nbytes);

  // Applied to the service time of a successful access (spikes, slow
  // windows). Never shrinks t.
  Duration AdjustServiceTime(Duration t);

  DeviceHealth Health() const;

  const FaultStats& stats() const { return stats_; }
  const FaultPlanConfig& config() const { return config_; }

 private:
  struct Window {
    enum class Kind { kDown, kSlow, kGc };
    TimePoint start;
    TimePoint end;
    Kind kind = Kind::kDown;
    double slow_factor = 0.0;   // kSlow: service-time multiplier
    Duration gc_stall{};        // kGc: stall added to a hit op
    double gc_duty = 0.0;       // kGc: fraction of ops that eat the stall
  };

  bool InBadRange(int64_t offset, int64_t nbytes) const;
  // Is `w` open at the attached clock's current time? Always false without a
  // clock (window checks are inert, per AttachClock).
  bool WindowActive(const Window& w) const;

  FaultPlanConfig config_;
  Rng rng_;
  const SimClock* clock_ = nullptr;
  std::vector<std::pair<int64_t, int64_t>> bad_ranges_;  // [offset, end)
  std::vector<Window> windows_;
  int forced_read_failures_ = 0;
  int forced_write_failures_ = 0;
  FaultStats stats_;
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_FAULT_H_
