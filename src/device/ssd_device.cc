#include "src/device/ssd_device.h"

#include <algorithm>
#include <cmath>

#include "src/common/log.h"

namespace sled {

SsdDevice::SsdDevice(SsdDeviceConfig config, std::string name)
    : StorageDevice(std::move(name), config.seed), config_(config) {
  SLED_CHECK(config_.capacity_bytes > 0 && config_.page_bytes > 0 &&
                 config_.capacity_bytes % config_.page_bytes == 0,
             "ssd capacity must be a positive multiple of the page size");
  SLED_CHECK(config_.pages_per_block >= 1 && config_.num_channels >= 1,
             "ssd needs at least one page per block and one channel");
  SLED_CHECK(config_.overprovision > 0.0, "ssd needs overprovisioned flash to GC into");
  SLED_CHECK(config_.gc_low_watermark > 0.0 && config_.gc_low_watermark < 1.0,
             "gc_low_watermark must be a fraction in (0, 1)");
  SLED_CHECK(config_.greedy_bias > 0.0 && config_.greedy_bias <= 1.0 &&
                 config_.gc_jitter >= 0.0 && config_.gc_jitter < 1.0,
             "bad GC victim-selection parameters");
  logical_pages_ = config_.capacity_bytes / config_.page_bytes;
  physical_pages_ =
      static_cast<int64_t>(std::llround(static_cast<double>(logical_pages_) *
                                        (1.0 + config_.overprovision)));
  SLED_CHECK(physical_pages_ > logical_pages_, "overprovision rounds to zero spare pages");
  free_pages_ = physical_pages_;
  ftl_.assign(static_cast<size_t>(logical_pages_), -1);
}

int64_t SsdDevice::PagesSpanned(int64_t offset, int64_t nbytes) const {
  const int64_t first = offset / config_.page_bytes;
  const int64_t last = (offset + nbytes - 1) / config_.page_bytes;
  return last - first + 1;
}

Duration SsdDevice::ArrayTime(int64_t pages, Duration per_page) const {
  const int64_t waves =
      (pages + config_.num_channels - 1) / config_.num_channels;
  return per_page * waves;
}

Duration SsdDevice::PendingStall() const {
  return std::min(gc_debt_, config_.gc_stall_cap);
}

int64_t SsdDevice::PhysicalPageOf(int64_t logical_page) const {
  SLED_CHECK(logical_page >= 0 && logical_page < logical_pages_, "bad logical page");
  return ftl_[static_cast<size_t>(logical_page)];
}

double SsdDevice::write_amplification() const {
  if (host_pages_written_ == 0) {
    return 1.0;
  }
  return static_cast<double>(host_pages_written_ + gc_pages_written_) /
         static_cast<double>(host_pages_written_);
}

void SsdDevice::RunGcCycle() {
  // Greedy victim selection finds a block emptier than the array average;
  // its valid fraction is occupancy * greedy_bias with a seeded jitter (the
  // model's stand-in for how lucky this particular pick is).
  const double occupancy =
      1.0 - static_cast<double>(std::max<int64_t>(free_pages_, 0)) /
                static_cast<double>(physical_pages_);
  const double jitter = 1.0 + config_.gc_jitter * (2.0 * rng().UniformDouble() - 1.0);
  const double valid_frac =
      std::clamp(occupancy * config_.greedy_bias * jitter, 0.0, 0.95);
  const int64_t moved = static_cast<int64_t>(
      std::llround(valid_frac * static_cast<double>(config_.pages_per_block)));
  // Valid pages are read out and re-programmed elsewhere, then the block is
  // erased; net reclaim is the block minus what was copied.
  gc_debt_ += ArrayTime(moved, config_.read_page + config_.program_page) +
              config_.erase_block;
  gc_pages_written_ += moved;
  free_pages_ += config_.pages_per_block - moved;
  ++gc_cycles_;
}

AccessCost SsdDevice::Cost(int64_t offset, int64_t nbytes, bool writing, Rng* /*draw*/) const {
  // Flash has no positioning state, so nothing repositions. The op first
  // drains *pre-existing* GC debt (a bounded stall), which is known state,
  // so the price has no random term: the model's one draw, the GC victim
  // jitter, lands in debt that later ops pay.
  return {config_.per_request_overhead +
          ArrayTime(PagesSpanned(offset, nbytes),
                    writing ? config_.program_page : config_.read_page) +
          PendingStall()};
}

void SsdDevice::Advance(int64_t offset, int64_t nbytes, bool writing) {
  gc_debt_ -= PendingStall();  // the stall Cost charged
  if (!writing) {
    return;
  }
  // GC triggered by this write becomes debt for later ops, like a real FTL's
  // background collector.
  const int64_t pages = PagesSpanned(offset, nbytes);
  const int64_t first = offset / config_.page_bytes;
  for (int64_t p = 0; p < pages; ++p) {
    // Out-of-place update: the old physical page (if any) becomes garbage,
    // the logical page maps onto the next slot of the log-structured ring.
    ftl_[static_cast<size_t>(first + p)] = next_physical_;
    next_physical_ = (next_physical_ + 1) % physical_pages_;
  }
  host_pages_written_ += pages;
  free_pages_ -= pages;
  while (free_pages_ < 0 || free_fraction() < config_.gc_low_watermark) {
    RunGcCycle();
  }
}

DeviceCharacteristics SsdDevice::Nominal() const {
  // First byte: one command plus one page read. Streaming: all channels
  // transferring page-sized reads back to back.
  const Duration base = config_.per_request_overhead + config_.read_page;
  const double bw = static_cast<double>(config_.num_channels) *
                    static_cast<double>(config_.page_bytes) /
                    config_.read_page.ToSeconds();
  const double base_s = base.ToSeconds();
  const double cap_s = config_.gc_stall_cap.ToSeconds();
  const double duty = config_.nominal_gc_duty;
  DeviceCharacteristics c{SecondsF(base_s + duty * cap_s), bw};
  // A duty-fraction Bernoulli stall lands in quantile p only when duty
  // exceeds 1-p: the clean path is the p50, the full stall is the p99.
  c.latency_q = {base_s + (duty > 0.50 ? cap_s : 0.0),
                 base_s + (duty > 0.10 ? cap_s : 0.0),
                 base_s + (duty >= 0.01 ? cap_s : 0.0)};
  return c;
}

}  // namespace sled
