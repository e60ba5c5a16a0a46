// Unit tests for the storage device models.
#include <gtest/gtest.h>

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

TEST(MemoryDeviceTest, CostIsLatencyPlusTransfer) {
  MemoryDevice mem(MemoryDeviceConfig{});
  const Duration t = mem.Read(0, 4096).value();
  EXPECT_NEAR(t.ToMicros(), 0.175 + 4096 / 48.0, 0.2);
  EXPECT_EQ(mem.stats().reads, 1);
  EXPECT_EQ(mem.stats().bytes_read, 4096);
}

TEST(DiskDeviceTest, NominalMatchesPaperTable2) {
  DiskDevice disk(DiskDeviceConfig{});
  const DeviceCharacteristics c = disk.Nominal();
  // Table 2: 18 ms, 9.0 MB/s.
  EXPECT_NEAR(c.latency.ToMillis(), 18.0, 1.0);
  EXPECT_NEAR(c.bandwidth_bps / 1e6, 9.0, 0.2);
}

TEST(DiskDeviceTest, SequentialContinuationIsCheap) {
  DiskDevice disk(DiskDeviceConfig{});
  const Duration first = disk.Read(0, MiB(1)).value();
  const Duration second = disk.Read(MiB(1), MiB(1)).value();  // continues the stream
  // Second read pays no seek/rotation: pure transfer.
  EXPECT_LT(second, first);
  EXPECT_NEAR(second.ToSeconds(), MiB(1) / disk.BandwidthAt(MiB(1)), 1e-3);
  EXPECT_EQ(disk.stats().repositions, 1);  // only the initial positioning
}

TEST(DiskDeviceTest, RandomAccessPaysSeekAndRotation) {
  DiskDeviceConfig config;
  DiskDevice disk(config);
  (void)disk.Read(0, kPageSize);
  const Duration far = disk.Read(disk.capacity_bytes() - kPageSize, kPageSize).value();
  // Full-stroke seek is close to max_seek plus up to one rotation.
  EXPECT_GT(far.ToMillis(), config.max_seek.ToMillis() * 0.9);
  EXPECT_EQ(disk.stats().repositions, 2);
}

TEST(DiskDeviceTest, SeekTimeGrowsWithDistance) {
  DiskDevice disk(DiskDeviceConfig{});
  const int64_t cap = disk.capacity_bytes();
  const Duration small = disk.SeekTime(0, cap / 100);
  const Duration medium = disk.SeekTime(0, cap / 4);
  const Duration large = disk.SeekTime(0, cap - 1);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  EXPECT_EQ(disk.SeekTime(cap / 2, cap / 2), Duration());
}

TEST(DiskDeviceTest, ZonedBandwidthDeclinesInward) {
  DiskDeviceConfig config;
  config.num_zones = 8;
  DiskDevice disk(config);
  const double outer = disk.BandwidthAt(0);
  const double inner = disk.BandwidthAt(disk.capacity_bytes() - 1);
  EXPECT_DOUBLE_EQ(outer, config.outer_bandwidth_bps);
  EXPECT_NEAR(inner, config.inner_bandwidth_bps, 1.0);
  double prev = outer;
  for (int z = 1; z < 8; ++z) {
    const double bw = disk.BandwidthAt(z * disk.capacity_bytes() / 8 + 1);
    EXPECT_LE(bw, prev);
    prev = bw;
  }
}

TEST(DiskDeviceTest, EstimateDoesNotChangeState) {
  DiskDevice disk(DiskDeviceConfig{});
  (void)disk.Read(0, kPageSize);
  const Duration e1 = disk.Estimate(MiB(100), kPageSize);
  const Duration e2 = disk.Estimate(MiB(100), kPageSize);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(disk.stats().reads, 1);  // estimates are not accesses
}

TEST(CdRomDeviceTest, NominalMatchesPaperTable2) {
  CdRomDevice cd(CdRomDeviceConfig{});
  EXPECT_NEAR(cd.Nominal().latency.ToMillis(), 130.0, 1.0);
  EXPECT_NEAR(cd.Nominal().bandwidth_bps / 1e6, 2.8, 0.01);
}

TEST(CdRomDeviceTest, SeeksAreExpensiveStreamingIsNot) {
  CdRomDevice cd(CdRomDeviceConfig{});
  (void)cd.Read(0, MiB(1));
  const Duration stream = cd.Read(MiB(1), MiB(1)).value();
  EXPECT_NEAR(stream.ToSeconds(), MiB(1) / 2.8e6, 1e-2);
  const Duration seek = cd.Read(MiB(400), kPageSize).value();
  EXPECT_GT(seek.ToMillis(), 70.0);  // at least the minimum settle
}

TEST(NetworkDeviceTest, FirstByteLatencyOnlyOnStreamBreak) {
  NetworkDeviceConfig config;
  config.latency_jitter = 0.0;
  NetworkDevice nfs(config);
  const Duration first = nfs.Read(0, MiB(1)).value();
  const Duration cont = nfs.Read(MiB(1), MiB(1)).value();
  EXPECT_NEAR(first.ToSeconds() - cont.ToSeconds(), 0.270, 1e-3);
  EXPECT_NEAR(cont.ToSeconds(), MiB(1) / 1.0e6, 1e-2);
}

TEST(NetworkDeviceTest, NominalMatchesPaperTable2) {
  NetworkDevice nfs(NetworkDeviceConfig{});
  EXPECT_NEAR(nfs.Nominal().latency.ToMillis(), 270.0, 1.0);
  EXPECT_NEAR(nfs.Nominal().bandwidth_bps / 1e6, 1.0, 0.01);
}

TEST(TapeDeviceTest, FirstAccessPaysMountAndLocate) {
  TapeDeviceConfig config;
  TapeDevice tape(config);
  EXPECT_FALSE(tape.mounted());
  const Duration t = tape.Read(0, MiB(1)).value();
  EXPECT_TRUE(tape.mounted());
  // Load (40 s) dominates.
  EXPECT_GT(t.ToSeconds(), config.load_time.ToSeconds());
}

TEST(TapeDeviceTest, SequentialReadAvoidsLocate) {
  TapeDevice tape(TapeDeviceConfig{});
  (void)tape.Read(0, MiB(1));
  const Duration cont = tape.Read(MiB(1), MiB(1)).value();
  EXPECT_NEAR(cont.ToSeconds(), MiB(1) / 1.5e6, 1e-2);
}

TEST(TapeDeviceTest, SerpentineLocateDependsOnPhysicalDistance) {
  TapeDeviceConfig config;
  TapeDevice tape(config);
  (void)tape.Mount();
  const int64_t track_len = config.capacity_bytes / config.num_tracks;
  // End of track 0 and start of track 1 are physically adjacent (serpentine
  // turnaround), so locating between them is cheap; start of track 0 to
  // start of track 1 is a full longitudinal pass.
  const Duration adjacent = tape.LocateTime(track_len + 1);         // from pos 0: far
  const Duration turnaround_zone = [&] {
    TapeDevice t2(config);
    (void)t2.Mount();
    (void)t2.Read(track_len - kPageSize, kPageSize);  // park near end of track 0
    return t2.LocateTime(track_len + kPageSize);      // just over the turnaround
  }();
  EXPECT_LT(turnaround_zone, adjacent);
}

TEST(TapeDeviceTest, UnmountRewindProportionalToPosition) {
  TapeDeviceConfig config;
  TapeDevice tape(config);
  (void)tape.Mount();
  const Duration at_start = tape.Unmount();
  EXPECT_NEAR(at_start.ToSeconds(), 0.0, 1e-9);
  (void)tape.Mount();
  const int64_t track_len = config.capacity_bytes / config.num_tracks;
  (void)tape.Read(track_len / 2, kPageSize);
  const Duration mid = tape.Unmount();
  EXPECT_GT(mid.ToSeconds(), config.rewind_max.ToSeconds() * 0.3);
  EXPECT_LT(mid.ToSeconds(), config.rewind_max.ToSeconds());
}

TEST(AutochangerTest, MountOnDemandAndLruEviction) {
  TapeDeviceConfig tape_config;
  Autochanger changer(/*num_tapes=*/3, /*num_drives=*/1, tape_config);
  EXPECT_FALSE(changer.IsMounted(0));
  const Duration t0 = changer.Read(0, 0, MiB(1)).value();
  EXPECT_TRUE(changer.IsMounted(0));
  EXPECT_GT(t0.ToSeconds(), tape_config.load_time.ToSeconds());

  // Touching tape 1 with one drive evicts tape 0.
  (void)changer.Read(1, 0, MiB(1));
  EXPECT_TRUE(changer.IsMounted(1));
  EXPECT_FALSE(changer.IsMounted(0));
  EXPECT_GE(changer.exchanges(), 2);
}

TEST(AutochangerTest, SecondDriveAvoidsEviction) {
  Autochanger changer(/*num_tapes=*/3, /*num_drives=*/2, TapeDeviceConfig{});
  (void)changer.Read(0, 0, MiB(1));
  (void)changer.Read(1, 0, MiB(1));
  EXPECT_TRUE(changer.IsMounted(0));
  EXPECT_TRUE(changer.IsMounted(1));
  // A third tape evicts the least recently used (tape 0).
  (void)changer.Read(2, 0, MiB(1));
  EXPECT_FALSE(changer.IsMounted(0));
  EXPECT_TRUE(changer.IsMounted(1));
  EXPECT_TRUE(changer.IsMounted(2));
}

TEST(AutochangerTest, MountedReadIsMuchCheaperThanOffline) {
  Autochanger changer(/*num_tapes=*/2, /*num_drives=*/1, TapeDeviceConfig{});
  const Duration cold = changer.Read(0, 0, MiB(1)).value();
  const Duration warm = changer.Read(0, MiB(1), MiB(1)).value();
  EXPECT_GT(cold.ToSeconds(), 10 * warm.ToSeconds());
}

TEST(AutochangerTest, EstimateReflectsMountState) {
  Autochanger changer(/*num_tapes=*/2, /*num_drives=*/1, TapeDeviceConfig{});
  const Duration offline = changer.Estimate(0, 0, MiB(1));
  (void)changer.Read(0, 0, MiB(1));
  const Duration online = changer.Estimate(0, MiB(1), MiB(1));
  EXPECT_GT(offline.ToSeconds(), online.ToSeconds());
}

// ---- exact-output pins ----
//
// Each model runs a fixed seeded mix of sequential and random reads and
// writes. Every Estimate (read and write), every returned service time and
// the final DeviceStats fold into one 64-bit value, pinned to what the models
// produced before their pricing was unified. Unlike the parity tests' jitter
// bounds, a changed draw order or a reordered rounding step moves the value.

// Order-sensitive fold of 64-bit values (FNV-1a over whole words).
class Fold {
 public:
  void Add(int64_t v) { h_ = (h_ ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL; }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// `ops` accesses of 1-256 pages: half continue the previous access, half
// land at a random page; three in ten are writes.
void DriveMix(StorageDevice& dev, int ops, uint64_t seed, Fold& fold) {
  Rng rng(seed);
  int64_t next = 0;
  for (int i = 0; i < ops; ++i) {
    const int64_t len = kPageSize * rng.Uniform(1, 256);
    const bool sequential = rng.Bernoulli(0.5);
    const bool writing = rng.Bernoulli(0.3);
    int64_t off = sequential ? next : PageFloor(rng.Uniform(0, dev.capacity_bytes() - len));
    if (off + len > dev.capacity_bytes()) {
      off = 0;
    }
    fold.Add(dev.Estimate(off, len).nanos());
    fold.Add(dev.Estimate(off, len, /*writing=*/true).nanos());
    fold.Add((writing ? dev.Write(off, len) : dev.Read(off, len)).value().nanos());
    next = off + len;
  }
}

uint64_t FoldStats(const DeviceStats& s, Fold& fold) {
  for (const int64_t v : {s.reads, s.writes, s.bytes_read, s.bytes_written, s.repositions,
                          s.read_errors, s.write_errors, s.busy_time.nanos()}) {
    fold.Add(v);
  }
  return fold.value();
}

TEST(DevicePinTest, Memory) {
  MemoryDevice mem(MemoryDeviceConfig{});
  Fold fold;
  DriveMix(mem, 400, 101, fold);
  EXPECT_EQ(FoldStats(mem.stats(), fold), 1270075294297474959ULL);
}

TEST(DevicePinTest, Disk) {
  DiskDevice disk(DiskDeviceConfig{});
  Fold fold;
  DriveMix(disk, 400, 102, fold);
  EXPECT_EQ(FoldStats(disk.stats(), fold), 1761102244295041747ULL);
}

TEST(DevicePinTest, CdRom) {
  CdRomDevice cd(CdRomDeviceConfig{});
  Fold fold;
  DriveMix(cd, 400, 103, fold);
  EXPECT_EQ(FoldStats(cd.stats(), fold), 3722500111836071960ULL);
}

TEST(DevicePinTest, Network) {
  NetworkDevice nfs(NetworkDeviceConfig{});
  Fold fold;
  DriveMix(nfs, 400, 104, fold);
  EXPECT_EQ(FoldStats(nfs.stats(), fold), 8243497499516466833ULL);
}

TEST(DevicePinTest, SsdThroughGc) {
  SsdDeviceConfig config;
  config.capacity_bytes = MiB(64);  // small: GC runs within a few hundred writes
  SsdDevice ssd(config);
  Fold fold;
  DriveMix(ssd, 1200, 105, fold);
  EXPECT_GT(ssd.gc_cycles(), 0) << "mix never triggered GC; pin is vacuous";
  fold.Add(ssd.gc_cycles());
  EXPECT_EQ(FoldStats(ssd.stats(), fold), 6582552538340196198ULL);
}

TEST(DevicePinTest, TapeThroughMountAndTrackCrossing) {
  TapeDeviceConfig config;
  config.capacity_bytes = config.num_tracks * MiB(4);  // 4 MiB tracks: streams cross them
  TapeDevice tape(config);
  Fold fold;
  DriveMix(tape, 200, 106, fold);  // first access mounts
  // Stream across the boundary between tracks 2 and 3.
  fold.Add(tape.Estimate(MiB(12) - kPageSize, 2 * kPageSize).nanos());
  fold.Add(tape.Read(MiB(12) - kPageSize, 2 * kPageSize).value().nanos());
  fold.Add(tape.Unmount().nanos());
  DriveMix(tape, 200, 107, fold);  // remounts
  EXPECT_EQ(FoldStats(tape.stats(), fold), 11186297677363929456ULL);
}

// Property sweep: for any device, Read() must never return a negative or
// absurdly large duration, and stats must add up.
class DeviceSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DeviceSweepTest, DiskReadsAreSaneAcrossOffsets) {
  DiskDevice disk(DiskDeviceConfig{.seed = static_cast<uint64_t>(GetParam())});
  Rng rng(static_cast<uint64_t>(GetParam()));
  int64_t total_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    const int64_t off =
        PageFloor(rng.Uniform(0, disk.capacity_bytes() - MiB(2)));
    const int64_t len = kPageSize * rng.Uniform(1, 256);
    const Duration t = disk.Read(off, len).value();
    EXPECT_GE(t.nanos(), 0);
    EXPECT_LT(t.ToSeconds(), 5.0);
    total_bytes += len;
  }
  EXPECT_EQ(disk.stats().bytes_read, total_bytes);
  EXPECT_EQ(disk.stats().reads, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceSweepTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sled
