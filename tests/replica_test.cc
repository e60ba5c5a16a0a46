// ReplicatedFs: striped replication over heterogeneous devices, SLED-aware
// replica routing, degraded reads/writes under fault windows, and background
// re-sync (DESIGN.md §13).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/device/disk_device.h"
#include "src/device/fault.h"
#include "src/device/ssd_device.h"
#include "src/kernel/sim_kernel.h"
#include "src/replica/replicated_fs.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  ReplicatedFs* fs = nullptr;
  uint32_t fs_id = 0;
};

World MakeWorld(std::vector<std::unique_ptr<StorageDevice>> devices, ReplicatedFsConfig rc) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = 4096;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ReplicatedFs>("repl", std::move(devices), rc);
  w.fs = fs.get();
  auto id = w.kernel->Mount("/", std::move(fs));
  EXPECT_TRUE(id.ok());
  w.fs_id = id.value();
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

void WriteFile(World& w, const std::string& path, int64_t size) {
  const int fd = w.kernel->Create(*w.proc, path).value();
  std::string data(static_cast<size_t>(size), 'x');
  for (size_t i = 0; i < data.size(); i += 613) {
    data[i] = static_cast<char>('a' + (i / 613) % 26);
  }
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

// Read the whole file; returns total bytes read, asserting no error.
int64_t ReadAll(World& w, const std::string& path) {
  const int fd = w.kernel->Open(*w.proc, path).value();
  std::vector<char> buf(64 * 1024);
  int64_t total = 0;
  for (;;) {
    auto n = w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(n.ok());
    if (!n.ok() || n.value() == 0) {
      break;
    }
    total += n.value();
  }
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  return total;
}

std::vector<std::unique_ptr<StorageDevice>> IdenticalDisks(int n, uint64_t seed) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (int i = 0; i < n; ++i) {
    DiskDeviceConfig dc;
    dc.seed = seed;  // identical seed: rank-equal replicas, identical jitter
    devs.push_back(std::make_unique<DiskDevice>(dc, "disk" + std::to_string(i)));
  }
  return devs;
}

// Acceptance (a): with rank-equal replicas and everyone healthy, replication
// must be *free* in simulated read time — the router always picks replica 0
// (lowest index breaks the tie), whose device sees exactly the access
// sequence a single-device mount would see. Writes charge the slowest of
// identical replicas, i.e. exactly the single device's time. So the whole
// write + flush + cold-read timeline is byte-identical to the oracle.
TEST(ReplicaOracleTest, HealthyReadsMatchSingleDeviceOracle) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  World trio = MakeWorld(IdenticalDisks(3, 42), rc);
  World solo = MakeWorld(IdenticalDisks(1, 42), rc);

  const int64_t size = 48 * kPageSize + 1234;  // several stripes + a tail
  for (World* w : {&trio, &solo}) {
    WriteFile(*w, "/data", size);
    w->kernel->FlushAllDirty();
    w->kernel->DropCaches();
  }
  ASSERT_EQ(trio.kernel->clock().Now(), solo.kernel->clock().Now())
      << "write + flush timelines diverged before any read";

  ASSERT_EQ(ReadAll(trio, "/data"), size);
  ASSERT_EQ(ReadAll(solo, "/data"), size);
  EXPECT_EQ(trio.kernel->clock().Now(), solo.kernel->clock().Now());
  EXPECT_EQ(trio.proc->stats().io_time, solo.proc->stats().io_time);
  EXPECT_EQ(trio.fs->rstats().degraded_reads, 0);
  EXPECT_EQ(trio.fs->rstats().degraded_writes, 0);

  // The routed SLEDs advertise one level for the whole (non-resident) file:
  // replica 0.
  trio.kernel->DropCaches();
  const int fd = trio.kernel->Open(*trio.proc, "/data").value();
  const SledVector sleds = trio.kernel->IoctlSledsGet(*trio.proc, fd).value();
  ASSERT_FALSE(sleds.empty());
  const int level0 = trio.kernel->sleds_table().GlobalLevelOf(trio.fs_id, 0).value();
  for (const Sled& s : sleds) {
    EXPECT_EQ(s.level, level0);
  }
}

// Acceptance (b), routing half: an SSD replica inside a GC window keeps the
// better *mean* (the stall is rare) but grows a fat tail; the disk replica
// is slower on average with a bounded p99. A mean-ranked consumer must keep
// routing to the SSD while a p99-ranked one must flip to the disk — both in
// the raw routed SLEDs and in the picker plans built from them.
TEST(ReplicaRoutingTest, RankByP99FlipsRouteAwayFromGcReplica) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.push_back(std::make_unique<SsdDevice>(SsdDeviceConfig{}, "ssd"));
  devs.push_back(std::make_unique<DiskDevice>(DiskDeviceConfig{}, "disk"));
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  World w = MakeWorld(std::move(devs), rc);

  WriteFile(w, "/data", 32 * kPageSize);
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  const int ssd_level = w.kernel->sleds_table().GlobalLevelOf(w.fs_id, 0).value();
  const int disk_level = w.kernel->sleds_table().GlobalLevelOf(w.fs_id, 1).value();

  // Healthy: the SSD wins on every statistic.
  const int fd = w.kernel->Open(*w.proc, "/data").value();
  const SledVector healthy = w.kernel->IoctlSledsGet(*w.proc, fd, RankBy::kP99).value();
  for (const Sled& s : healthy) {
    EXPECT_EQ(s.level, ssd_level);
  }

  // GC window on the SSD: 5% of ops eat a 200 ms stall. Mean moves by 10 ms
  // (still beating the ~18 ms disk); the p99 absorbs the whole stall and
  // blows past the disk's bounded tail.
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  plan->AttachClock(&w.kernel->clock());
  plan->AddGcWindow(w.kernel->clock().Now(), w.kernel->clock().Now() + Seconds(1000),
                    Milliseconds(200), 0.05);
  w.fs->replica(0).InjectFaults(plan);

  const SledVector by_mean = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  for (const Sled& s : by_mean) {
    EXPECT_EQ(s.level, ssd_level) << "mean-ranked route must stay on the SSD";
  }
  const SledVector by_p99 = w.kernel->IoctlSledsGet(*w.proc, fd, RankBy::kP99).value();
  for (const Sled& s : by_p99) {
    EXPECT_EQ(s.level, disk_level) << "p99-ranked route must flip to the disk";
  }

  // The same flip seen through the pick library: plans disagree about which
  // copy backs the file.
  PickerOptions mean_opts;
  auto mean_picker = SledsPicker::Create(*w.kernel, *w.proc, fd, mean_opts).value();
  PickerOptions p99_opts;
  p99_opts.rank_by = RankBy::kP99;
  auto p99_picker = SledsPicker::Create(*w.kernel, *w.proc, fd, p99_opts).value();
  ASSERT_FALSE(mean_picker->plan().empty());
  ASSERT_FALSE(p99_picker->plan().empty());
  EXPECT_EQ(mean_picker->plan().front().level, ssd_level);
  EXPECT_EQ(p99_picker->plan().front().level, disk_level);

  // The data plane follows its configured statistic (kMean): reads during
  // the GC window still come from the SSD.
  EXPECT_EQ(w.fs->LevelOf(2, 0), 0);
}

// Acceptance (b), fault half: a down window on one replica degrades writes
// (fewer acks, stripes marked stale) and reads (served by the surviving
// copy) without surfacing any error; once the window ends, background
// recovery re-syncs the stale stripes and routing converges back.
TEST(ReplicaFaultTest, OutageDegradesThenRecoveryResyncs) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  rc.replication_min = 1;
  World w = MakeWorld(IdenticalDisks(2, 7), rc);

  const int64_t size = 32 * kPageSize;
  WriteFile(w, "/data", size);
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  // Replica 0 goes down for 60 s.
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  plan->AttachClock(&w.kernel->clock());
  plan->AddDownWindow(w.kernel->clock().Now(), w.kernel->clock().Now() + Seconds(60));
  w.fs->replica(0).InjectFaults(plan);

  // Reads during the outage succeed from replica 1 — routing knows replica 0
  // is unreachable, so no error and no failed attempt.
  EXPECT_EQ(ReadAll(w, "/data"), size);
  const int repl1_level = w.kernel->sleds_table().GlobalLevelOf(w.fs_id, 1).value();
  w.kernel->DropCaches();
  const int fd = w.kernel->Open(*w.proc, "/data").value();
  const SledVector degraded = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  for (const Sled& s : degraded) {
    EXPECT_EQ(s.level, repl1_level);
    EXPECT_FALSE(s.unavailable) << "a surviving replica keeps the SLEDs reachable";
  }

  // Writes during the outage succeed degraded: replica 1 acks, replica 0's
  // stripes go stale and queue for recovery.
  WriteFile(w, "/data2", 16 * kPageSize);
  // (Flush time lands on the returned Duration in immediate mode but on the
  // device queue in elevator mode, so only the side effects are asserted.)
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.fs->rstats().failed_writes, 0);
  EXPECT_GT(w.fs->rstats().degraded_writes, 0);
  EXPECT_EQ(w.fs->stale_stripes(), 2);  // 16 pages / 8-page stripes

  // Maintenance inside the window is a no-op: the replica is still down.
  w.kernel->RunMaintenance();
  EXPECT_EQ(w.fs->stale_stripes(), 2);
  EXPECT_EQ(w.fs->rstats().recovered_bytes, 0);

  // Window ends; recovery re-copies the stale stripes from replica 1.
  w.kernel->clock().Advance(Seconds(120));
  const Duration spent = w.kernel->RunMaintenance();
  EXPECT_FALSE(spent.IsZero());
  EXPECT_EQ(w.fs->stale_stripes(), 0);
  EXPECT_EQ(w.fs->rstats().recovered_bytes, 16 * kPageSize);

  // Healed and re-synced: routing converges back to replica 0 (tie-break).
  w.kernel->DropCaches();
  const int repl0_level = w.kernel->sleds_table().GlobalLevelOf(w.fs_id, 0).value();
  const int fd2 = w.kernel->Open(*w.proc, "/data2").value();
  const SledVector resynced = w.kernel->IoctlSledsGet(*w.proc, fd2).value();
  for (const Sled& s : resynced) {
    EXPECT_EQ(s.level, repl0_level);
  }
  EXPECT_EQ(ReadAll(w, "/data2"), 16 * kPageSize);
}

// A replica that errors *without* advertising it (scripted one-shot fault,
// no window for health to report) exercises the read failover path: the read
// succeeds from the runner-up and counts as degraded.
TEST(ReplicaFaultTest, ScriptedReadErrorFailsOverWithoutSurfacing) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  World w = MakeWorld(IdenticalDisks(2, 11), rc);

  WriteFile(w, "/data", 8 * kPageSize);
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  plan->AttachClock(&w.kernel->clock());
  plan->FailNextReads(1);
  w.fs->replica(0).InjectFaults(plan);

  EXPECT_EQ(ReadAll(w, "/data"), 8 * kPageSize);
  EXPECT_EQ(w.fs->rstats().degraded_reads, 1);
  EXPECT_EQ(w.kernel->stats().io_errors, 0) << "failover must hide the fault from the kernel";
}

// A write that fails on every placed replica fails the run outright once
// acks < replication_min: replication degrades, it does not lie.
TEST(ReplicaFaultTest, WriteFailsWhenAcksFallBelowMinimum) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  rc.replication_min = 2;
  World w = MakeWorld(IdenticalDisks(2, 13), rc);

  WriteFile(w, "/data", 8 * kPageSize);
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  plan->AttachClock(&w.kernel->clock());
  plan->AddDownWindow(w.kernel->clock().Now(), w.kernel->clock().Now() + Seconds(60));
  w.fs->replica(1).InjectFaults(plan);

  // One surviving ack < replication_min=2: the flush cannot commit the
  // pages; they stay queued (writeback retry policy), not silently lost.
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.kernel->stats().writeback_retries + w.kernel->stats().writeback_lost, 0);
}

// A write that no placed copy took leaves nothing stale: every copy still
// holds the same (old) data, so the fsync retry rewrites them all and a cold
// read must find the data. Marking the copies stale instead leaves no clean
// source to read or to re-sync from: every later read fails with EIO.
void FailEveryCopyThenRetryFsync(int replication_factor) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  rc.replication_factor = replication_factor;
  World w = MakeWorld(IdenticalDisks(2, 29), rc);

  const int64_t size = 8 * kPageSize;  // one stripe, placed on replicas 0..rf-1
  const std::string data(static_cast<size_t>(size), 'f');
  const int fd = w.kernel->Create(*w.proc, "/data").value();
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());

  // Every placed copy fails the first fsync's attempt and the kernel's
  // immediate retries of it.
  const int attempts = 1 + w.kernel->config().fault.max_io_retries;
  for (int r = 0; r < replication_factor; ++r) {
    auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
    plan->FailNextWrites(attempts);
    w.fs->replica(r).InjectFaults(plan);
  }
  EXPECT_FALSE(w.kernel->Fsync(*w.proc, fd).ok());
  EXPECT_EQ(w.fs->stale_stripes(), 0);
  ASSERT_TRUE(w.kernel->Fsync(*w.proc, fd).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  w.kernel->DropCaches();
  EXPECT_EQ(ReadAll(w, "/data"), size);
  EXPECT_EQ(w.fs->stale_stripes(), 0);
  EXPECT_EQ(w.kernel->stats().io_errors, 1) << "only the first fsync's transfer failed";
}

TEST(ReplicaFaultTest, FailedWriteOnOnlyCopyLeavesNothingStale) {
  FailEveryCopyThenRetryFsync(/*replication_factor=*/1);
}

TEST(ReplicaFaultTest, FailedWriteOnBothCopiesLeavesNothingStale) {
  FailEveryCopyThenRetryFsync(/*replication_factor=*/2);
}

// Hedged reads: with a deadline the straggler always misses (factor 0), the
// second-ranked replica is issued the same read; accounting and the
// min(straggler, deadline + hedge) charge are exercised end to end.
TEST(ReplicaHedgeTest, HedgeIssuesAndNeverChargesMoreThanStraggler) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  rc.hedge_reads = true;
  rc.hedge_deadline_factor = 0.0;  // deadline = pure transfer time: always hedge
  World w = MakeWorld(IdenticalDisks(2, 17), rc);

  const int64_t size = 16 * kPageSize;
  WriteFile(w, "/data", size);
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();

  EXPECT_EQ(ReadAll(w, "/data"), size);
  EXPECT_GT(w.fs->rstats().hedges_issued, 0);
  EXPECT_LE(w.fs->rstats().hedge_wins, w.fs->rstats().hedges_issued);
}

// Shrink-to-zero forgets regions and pending recovery; regrow reallocates.
TEST(ReplicaFsTest, TruncateToZeroDropsStaleState) {
  ReplicatedFsConfig rc;
  rc.stripe_pages = 8;
  World w = MakeWorld(IdenticalDisks(2, 23), rc);

  WriteFile(w, "/data", 16 * kPageSize);
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  plan->AttachClock(&w.kernel->clock());
  plan->AddDownWindow(w.kernel->clock().Now(), w.kernel->clock().Now() + Seconds(60));
  w.fs->replica(1).InjectFaults(plan);
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.fs->stale_stripes(), 0);

  const int fd = w.kernel->Open(*w.proc, "/data").value();
  ASSERT_TRUE(w.kernel->Ftruncate(*w.proc, fd, 0).ok());
  EXPECT_EQ(w.fs->stale_stripes(), 0);
  w.kernel->clock().Advance(Seconds(120));
  EXPECT_TRUE(w.kernel->RunMaintenance().IsZero());

  // Regrow after healing: clean write, fully replicated again.
  const std::string data(8 * kPageSize, 'y');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  w.kernel->FlushAllDirty();
  EXPECT_EQ(w.fs->stale_stripes(), 0);
}

}  // namespace
}  // namespace sled
