// Flash SSD model: page-mapped FTL, channel-parallel transfers, and
// garbage collection whose cost surfaces as deterministic, seeded stalls.
//
// Flash inverts the mechanical devices' cost structure: there is no
// positioning state — a random page read costs the same as a sequential one —
// but writes are *asymmetric in time*. Programs are slower than reads, blocks
// must be erased before reuse, and sustained writes force the FTL to garbage
// collect: copy the still-valid pages out of a victim block, erase it, and
// only then reclaim free space. That background work lands on foreground ops
// as latency spikes — the tail variability the HDFS SSD study in PAPERS.md
// measures, and the reason a scalar SLED latency cannot describe an SSD. The
// model keeps GC cost in an explicit debt accumulator drained in bounded
// stalls, so every number is a deterministic function of (config, op
// sequence, seed).
//
// Nominal() reports distribution-valued characteristics: p50 at the clean
// read path, p99 at read-plus-full-GC-stall — the spread rank_by=p99 pickers
// exist to consume.
#ifndef SLEDS_SRC_DEVICE_SSD_DEVICE_H_
#define SLEDS_SRC_DEVICE_SSD_DEVICE_H_

#include <vector>

#include "src/device/device.h"

namespace sled {

struct SsdDeviceConfig {
  // Logical (host-visible) capacity; physical flash is larger by
  // `overprovision` so the FTL always has somewhere to write.
  int64_t capacity_bytes = 8LL * 1024 * 1024 * 1024;
  int64_t page_bytes = 4096;
  int pages_per_block = 256;
  int num_channels = 8;

  // Flash timings (mid-2010s MLC-class part).
  Duration read_page = MicrosecondsF(60);
  Duration program_page = MicrosecondsF(300);
  Duration erase_block = Milliseconds(2);
  // Per-command cost (host interface, FTL lookup).
  Duration per_request_overhead = MicrosecondsF(20);

  // FTL policy.
  double overprovision = 0.07;      // physical = logical * (1 + overprovision)
  double gc_low_watermark = 0.10;   // GC when free/physical drops below this
  // Greedy victim selection finds blocks emptier than average; the victim's
  // valid fraction is occupancy * greedy_bias, jittered ±gc_jitter (seeded).
  double greedy_bias = 0.8;
  double gc_jitter = 0.10;
  // Foreground ops drain outstanding GC debt in stalls of at most this much
  // per op — the bounded pause a real FTL enforces.
  Duration gc_stall_cap = Milliseconds(1);
  // Long-run fraction of ops that catch a GC stall, used only for the
  // *nominal* mean/quantiles (live health comes from the fault plan / debt).
  double nominal_gc_duty = 0.01;

  uint64_t seed = 5;
};

class SsdDevice final : public StorageDevice {
 public:
  explicit SsdDevice(SsdDeviceConfig config, std::string name = "ssd");

  DeviceCharacteristics Nominal() const override;
  int64_t capacity_bytes() const override { return config_.capacity_bytes; }

  // (gc + host) programs per host program; 1.0 until GC has ever run.
  double write_amplification() const;
  // GC work accrued but not yet charged to a foreground op.
  Duration gc_debt() const { return gc_debt_; }
  int64_t gc_cycles() const { return gc_cycles_; }
  double free_fraction() const {
    return static_cast<double>(free_pages_) / static_cast<double>(physical_pages_);
  }
  // Logical-to-physical translation (-1 while unwritten). Exposed for tests.
  int64_t PhysicalPageOf(int64_t logical_page) const;

 protected:
  AccessCost Cost(int64_t offset, int64_t nbytes, bool writing, Rng* draw) const override;
  void Advance(int64_t offset, int64_t nbytes, bool writing) override;

 private:
  int64_t PagesSpanned(int64_t offset, int64_t nbytes) const;
  // Channel-parallel array time for `pages` pages at `per_page` each.
  Duration ArrayTime(int64_t pages, Duration per_page) const;
  // Debt this op would drain right now (bounded by gc_stall_cap).
  Duration PendingStall() const;
  void RunGcCycle();

  SsdDeviceConfig config_;
  int64_t logical_pages_ = 0;
  int64_t physical_pages_ = 0;
  int64_t free_pages_ = 0;
  int64_t next_physical_ = 0;        // bump allocator over the physical array
  std::vector<int64_t> ftl_;         // logical page -> physical page, -1 unmapped
  Duration gc_debt_;
  int64_t gc_cycles_ = 0;
  int64_t host_pages_written_ = 0;
  int64_t gc_pages_written_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_DEVICE_SSD_DEVICE_H_
