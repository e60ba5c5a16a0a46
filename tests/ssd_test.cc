// SsdDevice model, GC-spike fault windows, distribution-valued SLEDs, and
// tail-aware (rank_by) picking over a tiered SSD/HDD layout (a ReplicatedFs
// holding one copy per stripe).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/disk_device.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/kernel/sim_kernel.h"
#include "src/replica/replicated_fs.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

// ---- device model ----

TEST(SsdDeviceTest, ChannelParallelismSetsTransferCost) {
  SsdDeviceConfig config;
  SsdDevice ssd(config);
  // 8 pages across 8 channels: one wave. 9 pages: two waves.
  const Duration one_wave = ssd.Read(0, 8 * config.page_bytes).value();
  const Duration two_waves = ssd.Read(MiB(1), 9 * config.page_bytes).value();
  EXPECT_EQ(one_wave, config.per_request_overhead + config.read_page);
  EXPECT_EQ(two_waves, config.per_request_overhead + config.read_page * 2);
  // Random and sequential reads cost the same: flash has no head.
  const Duration random = ssd.Read(GiB(1), 8 * config.page_bytes).value();
  EXPECT_EQ(random, one_wave);
  EXPECT_EQ(ssd.stats().repositions, 0);
}

TEST(SsdDeviceTest, WritesUseProgramLatency) {
  SsdDeviceConfig config;
  SsdDevice ssd(config);
  const Duration w = ssd.Write(0, 8 * config.page_bytes).value();
  EXPECT_EQ(w, config.per_request_overhead + config.program_page);
}

TEST(SsdDeviceTest, FtlRemapsOnOverwrite) {
  SsdDevice ssd(SsdDeviceConfig{});
  EXPECT_EQ(ssd.PhysicalPageOf(0), -1);  // unwritten
  (void)ssd.Write(0, kPageSize);
  const int64_t first = ssd.PhysicalPageOf(0);
  EXPECT_GE(first, 0);
  (void)ssd.Write(0, kPageSize);
  // Out-of-place update: same logical page, new physical page.
  EXPECT_NE(ssd.PhysicalPageOf(0), first);
}

TEST(SsdDeviceTest, SustainedWritesTriggerGcAndWriteAmplification) {
  SsdDeviceConfig config;
  config.capacity_bytes = 64LL * 1024 * 1024;
  SsdDevice ssd(config);
  EXPECT_EQ(ssd.write_amplification(), 1.0);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t off = PageFloor(rng.Uniform(0, config.capacity_bytes - MiB(1)));
    ASSERT_TRUE(ssd.Write(off, MiB(1)).ok());
  }
  EXPECT_GT(ssd.gc_cycles(), 0);
  EXPECT_GT(ssd.write_amplification(), 1.0);
  // The free pool never collapses: GC holds the line at the watermark.
  EXPECT_GE(ssd.free_fraction(), config.gc_low_watermark * 0.5);
}

TEST(SsdDeviceTest, GcStallsAreBoundedPerOp) {
  SsdDeviceConfig config;
  config.capacity_bytes = 64LL * 1024 * 1024;
  SsdDevice ssd(config);
  Rng rng(8);
  const Duration clean_read = config.per_request_overhead + config.read_page;
  Duration worst;
  for (int i = 0; i < 1000; ++i) {
    const int64_t off = PageFloor(rng.Uniform(0, config.capacity_bytes - MiB(1)));
    ASSERT_TRUE(ssd.Write(off, MiB(1)).ok());
    const Duration r = ssd.Read(off, kPageSize).value();
    worst = std::max(worst, r);
    // Every op's GC surcharge is capped, however deep the debt.
    EXPECT_LE(r, clean_read + config.gc_stall_cap);
  }
  EXPECT_GT(ssd.gc_cycles(), 0);
  EXPECT_GT(worst, clean_read);  // some read actually caught a stall
}

TEST(SsdDeviceTest, DeterministicAcrossRuns) {
  auto run = [] {
    SsdDeviceConfig config;
    config.capacity_bytes = 64LL * 1024 * 1024;
    SsdDevice ssd(config);
    Rng rng(9);
    Duration total;
    for (int i = 0; i < 500; ++i) {
      const int64_t off = PageFloor(rng.Uniform(0, config.capacity_bytes - MiB(1)));
      total += ssd.Write(off, MiB(1)).value();
    }
    return std::pair(total, ssd.write_amplification());
  };
  EXPECT_EQ(run(), run());
}

TEST(SsdDeviceTest, NominalCarriesTailQuantiles) {
  SsdDeviceConfig config;
  SsdDevice ssd(config);
  const DeviceCharacteristics c = ssd.Nominal();
  const LatencyQuantiles q = c.Quantiles();
  EXPECT_GT(q.p99, q.p50);  // the GC stall lives in the tail
  EXPECT_NEAR(q.p99 - q.p50, config.gc_stall_cap.ToSeconds(), 1e-9);
  // The scalar stays the mean, between the median and the tail.
  EXPECT_GT(c.latency.ToSeconds(), q.p50);
  EXPECT_LT(c.latency.ToSeconds(), q.p99);
}

// ---- GC-spike fault windows ----

TEST(GcWindowTest, DutyOneStallsEveryOpAndHealthReportsTail) {
  SimClock clock;
  SsdDevice ssd(SsdDeviceConfig{});
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  ssd.InjectFaults(plan);
  plan->AttachClock(&clock);

  const Duration clean = ssd.Read(0, kPageSize).value();
  plan->AddGcWindow(clock.Now(), clock.Now() + Seconds(100), Milliseconds(50), 1.0);
  const Duration stalled = ssd.Read(0, kPageSize).value();
  EXPECT_EQ(stalled, clean + Milliseconds(50));
  EXPECT_EQ(plan->stats().gc_stalls, 1);

  const DeviceHealth h = ssd.Health();
  EXPECT_TRUE(h.degraded());
  EXPECT_FALSE(h.unavailable);  // GC never fails ops
  EXPECT_DOUBLE_EQ(h.gc_stall_s, 0.050);
  EXPECT_DOUBLE_EQ(h.gc_duty, 1.0);

  clock.Advance(Seconds(200));
  EXPECT_FALSE(ssd.Health().degraded());
  EXPECT_EQ(ssd.Read(0, kPageSize).value(), clean);
}

TEST(GcWindowTest, DutyIsSeededAndDeterministic) {
  auto run = [] {
    SimClock clock;
    SsdDevice ssd(SsdDeviceConfig{});
    auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{.seed = 21});
    ssd.InjectFaults(plan);
    plan->AttachClock(&clock);
    plan->AddGcWindow(clock.Now(), clock.Now() + Seconds(100), Milliseconds(50), 0.3);
    Duration total;
    for (int i = 0; i < 100; ++i) {
      total += ssd.Read(i * kPageSize, kPageSize).value();
    }
    return std::pair(total, plan->stats().gc_stalls);
  };
  const auto a = run();
  EXPECT_EQ(a, run());
  EXPECT_GT(a.second, 0);
  EXPECT_LT(a.second, 100);
}

// ---- distribution-valued SLEDs through the kernel ----

struct SsdWorld {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  ExtFs* fs = nullptr;
};

KernelConfig SmallKernelConfig() {
  KernelConfig config;
  config.cache.capacity_pages = 64;
  return config;
}

SsdWorld MakeSsdWorld() {
  SsdWorld w;
  w.kernel = std::make_unique<SimKernel>(SmallKernelConfig());
  auto fs = std::make_unique<ExtFs>("ssd", std::make_unique<SsdDevice>(SsdDeviceConfig{}));
  w.fs = fs.get();
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

TEST(SledQuantileTest, SledsCarryDeviceQuantiles) {
  SsdWorld w = MakeSsdWorld();
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  const std::string data(static_cast<size_t>(MiB(1)), 'x');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();
  const SledVector sleds = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  ASSERT_FALSE(sleds.empty());
  const LatencyQuantiles device_q = w.fs->device().Nominal().Quantiles();
  for (const Sled& s : sleds) {
    EXPECT_DOUBLE_EQ(s.latency_p50, device_q.p50);
    EXPECT_DOUBLE_EQ(s.latency_p99, device_q.p99);
    EXPECT_GT(s.latency_p99, s.latency_p50);
  }
}

TEST(SledQuantileTest, GcWindowMovesMeanByDutyShareAndTailByFullStall) {
  SsdWorld w = MakeSsdWorld();
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  const std::string data(static_cast<size_t>(MiB(1)), 'x');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();
  const Sled before = w.kernel->IoctlSledsGet(*w.proc, fd).value().front();

  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  w.fs->device().InjectFaults(plan);
  plan->AttachClock(&w.kernel->clock());
  const TimePoint now = w.kernel->clock().Now();
  const double stall_s = 0.060;
  const double duty = 0.2;
  plan->AddGcWindow(now, now + Seconds(3600), SecondsF(stall_s), duty);

  const Sled during = w.kernel->IoctlSledsGet(*w.proc, fd).value().front();
  EXPECT_FALSE(during.unavailable);
  EXPECT_NEAR(during.latency, before.latency + duty * stall_s, 1e-9);
  EXPECT_NEAR(during.latency_p99, before.latency_p99 + stall_s, 1e-9);
  EXPECT_NEAR(during.latency_p50, before.latency_p50, 1e-9);  // duty < 0.5
}

TEST(SledQuantileTest, ScalarCalibrationPreservesTailShape) {
  SsdWorld w = MakeSsdWorld();
  const int level = 1;  // 0 = memory, 1 = the ssd
  const LatencyQuantiles before = w.kernel->sleds_table().row(level).chars.latency_q;
  ASSERT_FALSE(before.empty());
  const double old_mean = w.kernel->sleds_table().row(level).chars.latency.ToSeconds();
  // An lmbench-style calibrator measures only a mean and FSLEDS_FILLs it.
  ASSERT_TRUE(w.kernel
                  ->IoctlSledsFill(*w.proc, level,
                                   DeviceCharacteristics{Milliseconds(1), 400.0e6, {}})
                  .ok());
  const DeviceCharacteristics after = w.kernel->sleds_table().row(level).chars;
  ASSERT_FALSE(after.latency_q.empty());
  const double ratio = 0.001 / old_mean;
  EXPECT_NEAR(after.latency_q.p99, before.p99 * ratio, 1e-12);
  EXPECT_NEAR(after.latency_q.p50, before.p50 * ratio, 1e-12);
}

// ---- tiered SSD/HDD layout and rank_by ----

// One copy per stripe over two devices: stripe s of every file lives on
// device (tier) s % 2.
ReplicatedFsConfig TieredConfig() {
  ReplicatedFsConfig config;
  config.replication_factor = 1;
  return config;
}

std::unique_ptr<ReplicatedFs> MakeTwoTier(std::string name, std::unique_ptr<StorageDevice> fast,
                                          std::unique_ptr<StorageDevice> slow) {
  std::vector<std::unique_ptr<StorageDevice>> tiers;
  tiers.push_back(std::move(fast));
  tiers.push_back(std::move(slow));
  return std::make_unique<ReplicatedFs>(std::move(name), std::move(tiers), TieredConfig());
}

struct TieredWorld {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  ReplicatedFs* fs = nullptr;
};

TieredWorld MakeTieredWorld() {
  TieredWorld w;
  w.kernel = std::make_unique<SimKernel>(SmallKernelConfig());
  auto fs = MakeTwoTier("tiered", std::make_unique<SsdDevice>(SsdDeviceConfig{}),
                        std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  w.fs = fs.get();
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

TEST(TieredLayoutTest, PagesStripeAcrossTiers) {
  TieredWorld w = MakeTieredWorld();
  const ReplicatedFsConfig config = TieredConfig();
  EXPECT_EQ(w.fs->LevelOf(0, 0), 0);
  EXPECT_EQ(w.fs->LevelOf(0, config.stripe_pages - 1), 0);
  EXPECT_EQ(w.fs->LevelOf(0, config.stripe_pages), 1);
  EXPECT_EQ(w.fs->LevelOf(0, 2 * config.stripe_pages), 0);
  EXPECT_EQ(w.fs->LevelRunLen(0, 0, 1000), config.stripe_pages);
  EXPECT_EQ(w.fs->LevelRunLen(0, config.stripe_pages - 1, 1000), 1);
  EXPECT_EQ(w.fs->Levels().size(), 2u);
  EXPECT_EQ(w.fs->DeviceAddressOf(0, 0), -1);
  EXPECT_EQ(w.fs->PrimaryDevice(), nullptr);
}

TEST(TieredLayoutTest, ReadWriteRoundTripChargesBothDevices) {
  TieredWorld w = MakeTieredWorld();
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  // Two full stripes: half the pages on each tier.
  const ReplicatedFsConfig config = TieredConfig();
  const int64_t size = 2 * config.stripe_pages * kPageSize;
  const std::string data(static_cast<size_t>(size), 'y');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.fs->replica(0).stats().bytes_written, 0);
  EXPECT_GT(w.fs->replica(1).stats().bytes_written, 0);
  w.kernel->DropCaches();
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  std::vector<char> buf(static_cast<size_t>(size));
  ASSERT_EQ(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).value(), size);
  EXPECT_EQ(std::string(buf.begin(), buf.end()), data);
  EXPECT_GT(w.fs->replica(0).stats().bytes_read, 0);
  EXPECT_GT(w.fs->replica(1).stats().bytes_read, 0);
}

TEST(TieredLayoutTest, ShrinkToNonzeroKeepsRegionsAcrossRegrow) {
  TieredWorld w = MakeTieredWorld();
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  const ReplicatedFsConfig config = TieredConfig();
  const int64_t size = 2 * config.stripe_pages * kPageSize;
  const std::string data(static_cast<size_t>(size), 'z');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  w.kernel->FlushAllDirty();

  // Shrink to a nonzero size: the regions are kept (bump allocator), so
  // regrowing back within the original span must not allocate anything new —
  // the rewritten tail lands on the same device addresses and round-trips.
  ASSERT_TRUE(w.kernel->Ftruncate(*w.proc, fd, config.stripe_pages * kPageSize / 2).ok());
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, config.stripe_pages * kPageSize / 2, Whence::kSet).ok());
  const std::string tail(static_cast<size_t>(size - config.stripe_pages * kPageSize / 2), 'w');
  ASSERT_TRUE(
      w.kernel->Write(*w.proc, fd, std::span<const char>(tail.data(), tail.size())).ok());
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  std::vector<char> buf(static_cast<size_t>(size));
  ASSERT_EQ(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).value(), size);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.begin() + config.stripe_pages * kPageSize / 2,
                          [](char c) { return c == 'z'; }));
  EXPECT_TRUE(std::all_of(buf.begin() + config.stripe_pages * kPageSize / 2, buf.end(),
                          [](char c) { return c == 'w'; }));
}

TEST(TieredLayoutTest, GrowPastOneTierFailsNoSpcWithoutCorruptingAllocator) {
  // Tier 0 can hold 41 pages past its metadata page; tier 1 is huge. A grow
  // that does not fit tier 0 must fail kNoSpc *before* either bump pointer
  // moves, so smaller allocations keep succeeding afterwards.
  DiskDeviceConfig small;
  small.capacity_bytes = 42 * kPageSize;  // 1 metadata page + 41 usable
  auto tiered = MakeTwoTier("t", std::make_unique<DiskDevice>(small),
                            std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  ReplicatedFs& fs = *tiered;
  const InodeNum ino = fs.CreateFile(fs.root(), "f").value();
  const std::string a(static_cast<size_t>(32 * kPageSize), 'a');
  ASSERT_TRUE(fs.WriteBytes(ino, 0, std::span<const char>(a.data(), a.size())).ok());

  // Growing to 48 pages needs a fresh 48-page region on both tiers; tier 0
  // has only 9 pages left.
  auto grow = fs.Truncate(ino, 48 * kPageSize);
  ASSERT_FALSE(grow.ok());
  EXPECT_EQ(grow.error(), Err::kNoSpc);

  // The original region still maps and serves I/O.
  EXPECT_TRUE(fs.ReadPagesFromStore(ino, 0, 32).ok());

  // The failed grow consumed nothing: a 4-page file still fits (33 + 4 + 4
  // would not fit twice, so a second over-ask keeps failing deterministically).
  const InodeNum ino2 = fs.CreateFile(fs.root(), "g").value();
  const std::string b(static_cast<size_t>(4 * kPageSize), 'b');
  ASSERT_TRUE(fs.WriteBytes(ino2, 0, std::span<const char>(b.data(), b.size())).ok());
  EXPECT_TRUE(fs.ReadPagesFromStore(ino2, 0, 4).ok());
  auto grow2 = fs.Truncate(ino, 48 * kPageSize);
  ASSERT_FALSE(grow2.ok());
  EXPECT_EQ(grow2.error(), Err::kNoSpc);
}

TEST(RankByTest, P99RankingDefersSsdInsideGcWindow) {
  TieredWorld w = MakeTieredWorld();
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  const ReplicatedFsConfig config = TieredConfig();
  const int64_t size = 4 * config.stripe_pages * kPageSize;
  const std::string data(static_cast<size_t>(size), 'z');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  // Open a GC window on the SSD tier: mean barely moves (duty * stall =
  // 12 ms < the disk's 18 ms mean) but the p99 balloons past the disk's.
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  w.fs->replica(0).InjectFaults(plan);
  plan->AttachClock(&w.kernel->clock());
  const TimePoint now = w.kernel->clock().Now();
  plan->AddGcWindow(now, now + Seconds(3600), Milliseconds(60), 0.2);

  const SledVector sleds = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  ASSERT_GE(sleds.size(), 4u);
  const auto ssd_sled = std::find_if(sleds.begin(), sleds.end(),
                                     [](const Sled& s) { return s.offset == 0; });
  const auto disk_sled = std::find_if(sleds.begin(), sleds.end(), [&](const Sled& s) {
    return s.offset == config.stripe_pages * kPageSize;
  });
  ASSERT_NE(ssd_sled, sleds.end());
  ASSERT_NE(disk_sled, sleds.end());
  EXPECT_LT(ssd_sled->latency, disk_sled->latency);          // mean: SSD looks cheap
  EXPECT_GT(ssd_sled->latency_p99, disk_sled->latency_p99);  // tail: SSD is the risk

  // Mean-ranked plan starts on the SSD stripe; p99-ranked defers it.
  PickerOptions mean_opts;
  auto mean_picker = SledsPicker::Create(*w.kernel, *w.proc, fd, mean_opts).value();
  EXPECT_EQ(mean_picker->plan().front().offset, 0);

  PickerOptions p99_opts;
  p99_opts.rank_by = RankBy::kP99;
  auto p99_picker = SledsPicker::Create(*w.kernel, *w.proc, fd, p99_opts).value();
  EXPECT_EQ(p99_picker->plan().front().offset, config.stripe_pages * kPageSize);
  // Both plans still cover every byte exactly once.
  int64_t mean_total = 0, p99_total = 0;
  for (const Sled& s : mean_picker->plan()) mean_total += s.length;
  for (const Sled& s : p99_picker->plan()) p99_total += s.length;
  EXPECT_EQ(mean_total, size);
  EXPECT_EQ(p99_total, size);
}

}  // namespace
}  // namespace sled
