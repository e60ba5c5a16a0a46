// Estimate-vs-access parity: for every device model, the contract is
// "Estimate is the expectation of the access" (see StorageDevice::Estimate).
// Deterministic models must match exactly; models with stochastic terms must
// stay inside the configured range of those terms, and their *average* error
// over many draws must vanish.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/cdrom_device.h"
#include "src/device/disk_device.h"
#include "src/device/memory_device.h"
#include "src/device/network_device.h"
#include "src/device/ssd_device.h"
#include "src/device/tape_device.h"

namespace sled {
namespace {

// Offsets for a reposition-heavy pattern, scaled into [0, cap - len).
std::vector<int64_t> RandomOffsets(int64_t cap, int64_t len, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    offsets.push_back(PageFloor(rng.Uniform(0, cap - len)));
  }
  return offsets;
}

TEST(EstimateParityTest, MemoryIsExact) {
  MemoryDevice mem(MemoryDeviceConfig{});
  for (const int64_t off : RandomOffsets(mem.capacity_bytes(), MiB(1), 50, 11)) {
    EXPECT_EQ(mem.Estimate(off, MiB(1)), mem.Read(off, MiB(1)).value());
    EXPECT_EQ(mem.Estimate(off, MiB(1), /*writing=*/true), mem.Write(off, MiB(1)).value());
  }
}

TEST(EstimateParityTest, DiskSequentialIsExact) {
  DiskDevice disk(DiskDeviceConfig{});
  (void)disk.Read(0, MiB(1));
  for (int i = 1; i < 20; ++i) {
    const int64_t off = static_cast<int64_t>(i) * MiB(1);
    const Duration e = disk.Estimate(off, MiB(1));
    EXPECT_EQ(e, disk.Read(off, MiB(1)).value()) << "sequential continuation " << i;
  }
}

TEST(EstimateParityTest, DiskRandomWithinHalfRotationAndUnbiased) {
  DiskDeviceConfig config;
  DiskDevice disk(config);
  const double half_rot = 0.5 * 60.0 / config.rpm;
  double err_sum = 0.0;
  const auto offsets = RandomOffsets(disk.capacity_bytes(), kPageSize, 400, 12);
  for (const int64_t off : offsets) {
    const double e = disk.Estimate(off, kPageSize).ToSeconds();
    const double t = disk.Read(off, kPageSize).value().ToSeconds();
    // The only stochastic term is the rotational delay, uniform in
    // [0, period); the estimate carries its mean (half a rotation).
    EXPECT_NEAR(t, e, half_rot + 1e-9);
    err_sum += t - e;
  }
  // Expectation property: the mean signed error vanishes.
  const double mean_err = err_sum / static_cast<double>(offsets.size());
  EXPECT_NEAR(mean_err, 0.0, half_rot / std::sqrt(static_cast<double>(offsets.size())) * 4);
}

TEST(EstimateParityTest, DiskZonedBandwidthSurvivesHugeCapacities) {
  // offset * num_zones used to overflow int64 for multi-TB disks, flipping
  // the zone index negative; the fix divides by the zone width instead.
  DiskDeviceConfig config;
  config.capacity_bytes = 16LL * 1000 * 1000 * 1000 * 1000;  // 16 TB
  config.num_zones = 64;
  DiskDevice disk(config);
  const int64_t last = config.capacity_bytes - kPageSize;
  EXPECT_DOUBLE_EQ(disk.BandwidthAt(0), config.outer_bandwidth_bps);
  EXPECT_DOUBLE_EQ(disk.BandwidthAt(last), config.inner_bandwidth_bps);
  // Monotone non-increasing from outer to inner zones, even at offsets where
  // the old arithmetic wrapped (anything past ~144 GB at 64 zones).
  double prev = disk.BandwidthAt(0);
  for (int z = 0; z < config.num_zones; ++z) {
    const int64_t off = z * (config.capacity_bytes / config.num_zones);
    const double bw = disk.BandwidthAt(off);
    EXPECT_GT(bw, 0.0);
    EXPECT_LE(bw, prev);
    prev = bw;
  }
  // And the estimate built on it stays finite and positive.
  EXPECT_GT(disk.Estimate(last, kPageSize), Duration());
}

TEST(EstimateParityTest, CdRomWithinJitterRange) {
  CdRomDeviceConfig config;
  CdRomDevice cd(config);
  double err_sum = 0.0;
  const auto offsets = RandomOffsets(cd.capacity_bytes(), kPageSize, 200, 13);
  int64_t position = -1;
  for (const int64_t off : offsets) {
    // Jitter multiplies the seek by 0.9 + 0.2 U: bounded by 10% of the seek,
    // mean exactly the seek. Reads and burns share the cost model.
    const double max_dev = off == position ? 0.0 : 0.1 * cd.SeekTime(position, off).ToSeconds();
    const double e = cd.Estimate(off, kPageSize).ToSeconds();
    EXPECT_EQ(cd.Estimate(off, kPageSize, /*writing=*/true), cd.Estimate(off, kPageSize));
    const double t = cd.Read(off, kPageSize).value().ToSeconds();
    EXPECT_NEAR(t, e, max_dev + 1e-9);
    err_sum += t - e;
    position = off + kPageSize;
  }
  const double worst = 0.1 * (config.min_seek + config.full_stroke_extra).ToSeconds();
  EXPECT_NEAR(err_sum / 200.0, 0.0, worst / std::sqrt(200.0) * 4);
}

TEST(EstimateParityTest, CdRomSequentialIsExact) {
  CdRomDevice cd(CdRomDeviceConfig{});
  (void)cd.Read(0, MiB(1));
  const Duration e = cd.Estimate(MiB(1), MiB(1));
  EXPECT_EQ(e, cd.Read(MiB(1), MiB(1)).value());
}

TEST(EstimateParityTest, NetworkWithinJitterRange) {
  NetworkDeviceConfig config;
  NetworkDevice nfs(config);
  const double max_dev = config.latency_jitter * config.first_byte_latency.ToSeconds();
  double err_sum = 0.0;
  const auto offsets = RandomOffsets(nfs.capacity_bytes(), kPageSize, 200, 14);
  for (const int64_t off : offsets) {
    const double e = nfs.Estimate(off, kPageSize).ToSeconds();
    const double t = nfs.Read(off, kPageSize).value().ToSeconds();
    // Jitter is symmetric around the configured first-byte latency.
    EXPECT_NEAR(t, e, max_dev + 1e-9);
    err_sum += t - e;
  }
  EXPECT_NEAR(err_sum / 200.0, 0.0, max_dev / std::sqrt(200.0) * 4);
}

TEST(EstimateParityTest, NetworkSequentialIsExact) {
  NetworkDevice nfs(NetworkDeviceConfig{});
  (void)nfs.Read(0, MiB(1));
  const Duration e = nfs.Estimate(MiB(1), MiB(1));
  EXPECT_EQ(e, nfs.Read(MiB(1), MiB(1)).value());
}

TEST(EstimateParityTest, TapeIsExactIncludingMountAndTrackCrossing) {
  TapeDeviceConfig config;
  // Unmounted estimate at offset 0 must equal access exactly: Mount() parks
  // at the load point, so no locate is charged.
  {
    TapeDevice tape(config);
    const Duration e = tape.Estimate(0, MiB(1));
    EXPECT_EQ(e, tape.Read(0, MiB(1)).value());
  }
  // Unmounted estimate deeper in: load + locate from the load point.
  {
    TapeDevice tape(config);
    const int64_t off = PageFloor(config.capacity_bytes / 3);
    const Duration e = tape.Estimate(off, MiB(1));
    EXPECT_EQ(e, tape.Read(off, MiB(1)).value());
  }
  // Streaming across a track boundary pays the turnaround in both worlds.
  {
    TapeDevice tape(config);
    const int64_t track_len = config.capacity_bytes / config.num_tracks;
    const int64_t off = track_len - MiB(1);
    (void)tape.Read(0, kPageSize);
    (void)tape.Read(off, kPageSize);  // park just before the boundary
    const Duration e = tape.Estimate(off + kPageSize, MiB(2));
    EXPECT_EQ(e, tape.Read(off + kPageSize, MiB(2)).value());
    EXPECT_EQ(tape.Estimate(off, MiB(2), /*writing=*/true), tape.Estimate(off, MiB(2)));
  }
  // Random mounted pattern: locate arithmetic is deterministic.
  {
    TapeDevice tape(config);
    (void)tape.Mount();
    for (const int64_t off : RandomOffsets(config.capacity_bytes, MiB(1), 50, 15)) {
      const Duration e = tape.Estimate(off, MiB(1));
      EXPECT_EQ(e, tape.Read(off, MiB(1)).value());
    }
  }
}

TEST(EstimateParityTest, SsdIsExactIncludingGcDebt) {
  SsdDeviceConfig config;
  config.capacity_bytes = 64LL * 1024 * 1024;  // small: GC kicks in quickly
  SsdDevice ssd(config);
  Rng rng(16);
  // Sustained random overwrites force GC; at every step the estimate must
  // price the access exactly — the pending GC stall is deterministic state.
  for (int i = 0; i < 2000; ++i) {
    const int64_t off = PageFloor(rng.Uniform(0, config.capacity_bytes - MiB(1)));
    if (rng.Bernoulli(0.7)) {
      const Duration e = ssd.Estimate(off, MiB(1), /*writing=*/true);
      EXPECT_EQ(e, ssd.Write(off, MiB(1)).value()) << "write " << i;
    } else {
      const Duration e = ssd.Estimate(off, MiB(1));
      EXPECT_EQ(e, ssd.Read(off, MiB(1)).value()) << "read " << i;
    }
  }
  EXPECT_GT(ssd.gc_cycles(), 0) << "workload never triggered GC; test is vacuous";
}

}  // namespace
}  // namespace sled
