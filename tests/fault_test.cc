// Fault injection and end-to-end error propagation.
//
// Covers the whole error path promised by the fault model (DESIGN.md §8):
// device-level fault plans (scripted, probabilistic, windows), the kernel's
// retry/backoff policy, syscall-boundary error codes in both I/O modes (with
// identical simulated time), writeback retry semantics (failed pages stay
// queued, never silently dropped), and SLED/picker degradation when a level
// is unreachable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/device/disk_device.h"
#include "src/device/fault.h"
#include "src/fs/extent_file_system.h"
#include "src/fs/hsm_fs.h"
#include "src/fs/remote_fs.h"
#include "src/kernel/sim_kernel.h"
#include "src/replica/replicated_fs.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  ExtFs* fs = nullptr;
  std::shared_ptr<FaultPlan> plan;
};

World MakeDiskWorld(IoMode mode, int64_t cache_pages = 1024, int readahead = 0) {
  World w;
  KernelConfig config;
  config.io.mode = mode;
  config.cache.capacity_pages = cache_pages;
  if (readahead > 0) {
    config.min_readahead_pages = readahead;
    config.max_readahead_pages = readahead;
  }
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  w.fs = fs.get();
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  // Scripted plan: no probabilistic faults, everything driven by the test.
  w.plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  w.fs->device().InjectFaults(w.plan);
  return w;
}

void WriteFile(World& w, const std::string& path, int64_t size) {
  const int fd = w.kernel->Create(*w.proc, path).value();
  const std::string data(static_cast<size_t>(size), 'x');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

// ---- device-level fault plan ----

TEST(FaultPlanTest, ScriptedAndBadRangeFaultsAreDeterministic) {
  DiskDevice dev(DiskDeviceConfig{}, "d0");
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  dev.InjectFaults(plan);

  ASSERT_TRUE(dev.Read(0, kPageSize).ok());
  plan->FailNextReads(2);
  EXPECT_EQ(dev.Read(0, kPageSize).error(), Err::kIo);
  EXPECT_EQ(dev.Read(0, kPageSize).error(), Err::kIo);
  EXPECT_TRUE(dev.Read(0, kPageSize).ok());  // budget exhausted

  // A bad range keeps failing (persistent media error) until repaired, and
  // only for overlapping ops.
  plan->AddBadRange(0, kPageSize);
  EXPECT_EQ(dev.Read(0, kPageSize).error(), Err::kIo);
  EXPECT_EQ(dev.Read(kPageSize / 2, kPageSize).error(), Err::kIo);
  EXPECT_TRUE(dev.Read(4 * kPageSize, kPageSize).ok());
  EXPECT_EQ(dev.Write(0, kPageSize).error(), Err::kIo);
  plan->ClearBadRanges();
  EXPECT_TRUE(dev.Read(0, kPageSize).ok());
  EXPECT_EQ(dev.stats().read_errors, 4);
  EXPECT_EQ(dev.stats().write_errors, 1);
  EXPECT_EQ(plan->stats().faults_injected, 5);
}

TEST(FaultPlanTest, ProbabilisticFaultsReplayIdenticallyUnderOneSeed) {
  FaultPlanConfig fc;
  fc.seed = 99;
  fc.read_fault_prob = 0.3;
  auto run = [&]() {
    DiskDevice dev(DiskDeviceConfig{}, "d0");
    dev.InjectFaults(std::make_shared<FaultPlan>(fc));
    std::vector<bool> outcome;
    for (int i = 0; i < 64; ++i) {
      outcome.push_back(dev.Read(i * kPageSize, kPageSize).ok());
    }
    return outcome;
  };
  const std::vector<bool> a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);  // some faults fired
}

TEST(FaultPlanTest, FailedOpsCostZeroDeviceTimeAndLeavePositionUntouched) {
  // A masked transient fault must be byte-identical to no fault: the failing
  // op draws no device time and does not move the head, so the following
  // sequential read streams exactly as if the fault never happened.
  DiskDevice clean(DiskDeviceConfig{}, "d0");
  DiskDevice faulty(DiskDeviceConfig{}, "d1");
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  faulty.InjectFaults(plan);

  const Duration c1 = clean.Read(0, kPageSize).value();
  const Duration c2 = clean.Read(kPageSize, kPageSize).value();
  const Duration f1 = faulty.Read(0, kPageSize).value();
  plan->FailNextReads(1);
  EXPECT_EQ(faulty.Read(kPageSize, kPageSize).error(), Err::kIo);
  const Duration f2 = faulty.Read(kPageSize, kPageSize).value();
  EXPECT_EQ(c1, f1);
  EXPECT_EQ(c2, f2);
}

TEST(FaultPlanTest, SlowWindowInflatesServiceTimeAndHealth) {
  SimClock clock;
  DiskDevice dev(DiskDeviceConfig{}, "d0");
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  dev.InjectFaults(plan);
  plan->AttachClock(&clock);

  const Duration nominal = dev.Read(0, kPageSize).value();
  plan->AddSlowWindow(clock.Now(), clock.Now() + Seconds(100), 4.0);
  dev.ResetStats();
  // Re-read the same span from the same position history: only the window
  // multiplies the time.
  DiskDevice dev2(DiskDeviceConfig{}, "d0");
  auto plan2 = std::make_shared<FaultPlan>(FaultPlanConfig{});
  dev2.InjectFaults(plan2);
  plan2->AttachClock(&clock);
  plan2->AddSlowWindow(clock.Now(), clock.Now() + Seconds(100), 4.0);
  const Duration slowed = dev2.Read(0, kPageSize).value();
  EXPECT_EQ(slowed, nominal * 4);
  EXPECT_FALSE(dev2.Health().unavailable);
  EXPECT_EQ(dev2.Health().latency_factor, 4.0);
  clock.Advance(Seconds(200));
  EXPECT_FALSE(dev2.Health().degraded());  // window closed
}

// ---- syscall boundary, both I/O modes ----

TEST(FaultKernelTest, ReadFaultReturnsEioInBothModesAtIdenticalSimTime) {
  Duration elapsed[2];
  for (const IoMode mode : {IoMode::kFifoSync, IoMode::kElevator}) {
    World w = MakeDiskWorld(mode);
    WriteFile(w, "/f", 16 * kPageSize);
    w.kernel->DropCaches();
    // Kernel policy is max_io_retries (2) immediate re-issues: 3 device reads
    // total. Forcing exactly 3 makes the first transfer fail past all retries.
    w.plan->FailNextReads(3);
    const int fd = w.kernel->Open(*w.proc, "/f").value();
    std::vector<char> buf(kPageSize);
    const TimePoint before = w.kernel->clock().Now();
    const auto r = w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size()));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), Err::kIo);
    elapsed[mode == IoMode::kElevator ? 1 : 0] = w.kernel->clock().Now() - before;
    EXPECT_EQ(w.kernel->stats().io_errors, 1);
    EXPECT_EQ(w.kernel->stats().io_retries, 2);
    EXPECT_EQ(w.fs->device().stats().read_errors, 3);
    // No leaked in-flight frames: a failed request must release its claim so
    // eviction is not wedged.
    EXPECT_EQ(w.kernel->cache().in_flight_pages(), 0);
    // The fault was transient and scripted; the data is still readable.
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
    EXPECT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

TEST(FaultKernelTest, TransientFaultMaskedByKernelRetriesCostsNoExtraTime) {
  // Two identical worlds; one injects 2 transient faults (inside the retry
  // budget). Failed attempts are fail-fast, so the masked run must land on
  // the same simulated clock as the clean run.
  World clean = MakeDiskWorld(IoMode::kFifoSync);
  World faulty = MakeDiskWorld(IoMode::kFifoSync);
  for (World* w : {&clean, &faulty}) {
    WriteFile(*w, "/f", 8 * kPageSize);
    w->kernel->DropCaches();
  }
  faulty.plan->FailNextReads(2);
  std::vector<char> buf(8 * kPageSize);
  for (World* w : {&clean, &faulty}) {
    const int fd = w->kernel->Open(*w->proc, "/f").value();
    ASSERT_TRUE(w->kernel->Read(*w->proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  }
  EXPECT_EQ(clean.kernel->clock().Now(), faulty.kernel->clock().Now());
  EXPECT_EQ(faulty.kernel->stats().io_retries, 2);
  EXPECT_EQ(faulty.kernel->stats().io_errors, 0);
}

TEST(FaultKernelTest, MmapReadFaultReturnsEio) {
  World w = MakeDiskWorld(IoMode::kFifoSync);
  WriteFile(w, "/f", 4 * kPageSize);
  w.kernel->DropCaches();
  w.plan->FailNextReads(3);
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  const auto view = w.kernel->MmapRead(*w.proc, fd, 0, 4 * kPageSize);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error(), Err::kIo);
  // Transient: the next touch pages in fine.
  EXPECT_TRUE(w.kernel->MmapRead(*w.proc, fd, 0, 4 * kPageSize).ok());
}

// ---- writeback / fsync ----

TEST(FaultKernelTest, FsyncFailureLeavesPagesDirtyInBothModes) {
  for (const IoMode mode : {IoMode::kFifoSync, IoMode::kElevator}) {
    World w = MakeDiskWorld(mode);
    const int fd = w.kernel->Create(*w.proc, "/f").value();
    const std::string data(4 * kPageSize, 'd');
    ASSERT_TRUE(
        w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
    const FileId fid = Vfs::MakeFileId(w.kernel->vfs().Resolve("/f").value().fs_id,
                                       w.kernel->vfs().Resolve("/f").value().ino);
    ASSERT_EQ(w.kernel->cache().DirtyPagesOf(fid).size(), 4u);

    w.plan->FailNextWrites(3);  // exhaust the retry budget for the first run
    const auto r = w.kernel->Fsync(*w.proc, fd);
    ASSERT_FALSE(r.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(r.error(), Err::kIo);
    // The contract under test: a failed writeback never loses the dirty bit.
    EXPECT_EQ(w.kernel->cache().DirtyPagesOf(fid).size(), 4u);
    EXPECT_EQ(w.kernel->stats().writeback_lost, 0);

    // Fault gone: the retry round-trips to stable storage and cleans up.
    ASSERT_TRUE(w.kernel->Fsync(*w.proc, fd).ok());
    EXPECT_EQ(w.kernel->cache().DirtyPagesOf(fid).size(), 0u);
  }
}

TEST(FaultKernelTest, EvictionWritebackRetriesWithBackoffAndLosesNothing) {
  // Small cache: writing 4x its capacity forces dirty evictions through the
  // writeback queue. The first flush hits faults; pages must stay queued
  // (with a backoff deadline) and drain successfully once the device heals.
  World w = MakeDiskWorld(IoMode::kFifoSync, /*cache_pages=*/16);
  w.plan->FailNextWrites(6);
  WriteFile(w, "/f", 64 * kPageSize);
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.kernel->stats().writeback_retries, 0);
  EXPECT_EQ(w.kernel->stats().writeback_lost, 0);

  // Every page survived somewhere (cache or store): read the file back.
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  std::vector<char> buf(64 * kPageSize);
  const auto n = w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 64 * kPageSize);
}

TEST(FaultKernelTest, WritebackGivesUpPastAttemptCapWithoutHanging) {
  // A permanently failing device must not hang the flush loop: pages are
  // counted lost once the attempt cap is hit, and the drain terminates.
  World w = MakeDiskWorld(IoMode::kFifoSync, /*cache_pages=*/16);
  w.plan->FailNextWrites(1 << 20);  // effectively permanent
  WriteFile(w, "/f", 32 * kPageSize);
  w.kernel->FlushAllDirty();
  EXPECT_GT(w.kernel->stats().writeback_lost, 0);
}

// ---- SLEDs / picker degradation ----

TEST(FaultSledsTest, DownServerTimesOutSyscallsAndBalloonsSleds) {
  KernelConfig config;
  config.cache.capacity_pages = 1024;
  config.min_readahead_pages = 1;
  config.max_readahead_pages = 1;
  SimKernel kernel(config);
  auto fs_owned = std::make_unique<RemoteFs>("nfs2", RemoteFsConfig{});
  RemoteFs* fs = fs_owned.get();
  ASSERT_TRUE(kernel.Mount("/", std::move(fs_owned)).ok());
  Process& proc = kernel.CreateProcess("test");

  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  fs->server().disk().InjectFaults(plan);
  plan->AttachClock(&kernel.clock());

  const int fd = kernel.Create(proc, "/f").value();
  const std::string data(16 * kPageSize, 'n');
  ASSERT_TRUE(kernel.Write(proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(kernel.Fsync(proc, fd).ok());
  kernel.DropCaches();

  plan->AddDownWindow(kernel.clock().Now(), kernel.clock().Now() + Seconds(60));
  // Syscalls needing the server fail like an interrupted NFS hard mount.
  EXPECT_EQ(kernel.Fstat(proc, fd).error(), Err::kTimedOut);
  std::vector<char> buf(kPageSize);
  ASSERT_TRUE(kernel.Lseek(proc, fd, 0, Whence::kSet).ok());
  EXPECT_EQ(kernel.Read(proc, fd, std::span<char>(buf.data(), buf.size())).error(),
            Err::kTimedOut);
  // SLEDs report the level as unreachable with a ballooned latency.
  const SledVector sleds = kernel.IoctlSledsGet(proc, fd).value();
  ASSERT_FALSE(sleds.empty());
  for (const Sled& s : sleds) {
    EXPECT_TRUE(s.unavailable);
    EXPECT_EQ(s.latency, kernel.config().fault.unavailable_latency_s);
  }
  // Window over: everything recovers with no residue.
  kernel.clock().Advance(Seconds(120));
  EXPECT_TRUE(kernel.Fstat(proc, fd).ok());
  ASSERT_TRUE(kernel.Lseek(proc, fd, 0, Whence::kSet).ok());
  EXPECT_TRUE(kernel.Read(proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  const SledVector healthy = kernel.IoctlSledsGet(proc, fd).value();
  for (const Sled& s : healthy) {
    EXPECT_FALSE(s.unavailable);
  }
}

TEST(FaultSledsTest, PickerPrunesUnavailableSectionsOnRefresh) {
  KernelConfig config;
  config.cache.capacity_pages = 1024;
  config.min_readahead_pages = 1;
  config.max_readahead_pages = 1;
  SimKernel kernel(config);
  auto fs_owned = std::make_unique<RemoteFs>("nfs2", RemoteFsConfig{});
  RemoteFs* fs = fs_owned.get();
  ASSERT_TRUE(kernel.Mount("/", std::move(fs_owned)).ok());
  Process& proc = kernel.CreateProcess("test");
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  fs->server().disk().InjectFaults(plan);
  plan->AttachClock(&kernel.clock());

  const int64_t file_pages = 64;
  {
    const int fd = kernel.Create(proc, "/f").value();
    const std::string data(static_cast<size_t>(file_pages * kPageSize), 'p');
    ASSERT_TRUE(kernel.Write(proc, fd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(kernel.Close(proc, fd).ok());
  }
  kernel.DropCaches();

  // Make the first 16 pages resident, then build a refresh-every-pick picker.
  const int fd = kernel.Open(proc, "/f").value();
  std::vector<char> buf(16 * kPageSize);
  ASSERT_TRUE(kernel.Read(proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  PickerOptions opts;
  opts.preferred_chunk_bytes = 16 * kPageSize;
  opts.refresh_every_n_picks = 1;
  opts.prune_unavailable = true;
  auto picker = SledsPicker::Create(kernel, proc, fd, opts).value();

  // Server drops while the picker is mid-plan.
  plan->AddDownWindow(kernel.clock().Now(), kernel.clock().Now() + Seconds(3600));

  // First pick: the resident (memory-level) section — lowest latency.
  const auto p1 = picker->NextRead().value();
  EXPECT_EQ(p1.offset, 0);
  EXPECT_EQ(p1.length, 16 * kPageSize);
  // Second pick refreshes, sees the remaining sections unreachable, prunes
  // them, and finishes instead of advising a read that would time out.
  const auto p2 = picker->NextRead().value();
  EXPECT_EQ(p2.length, 0);
  EXPECT_TRUE(picker->done());
  EXPECT_EQ(picker->pruned_bytes(), (file_pages - 16) * kPageSize);
}

TEST(FaultPlanTest, OverlappingWindowsComposeInHealthAndJudge) {
  SimClock clock;
  FaultPlan plan(FaultPlanConfig{});
  plan.AttachClock(&clock);
  const TimePoint t0 = clock.Now();
  plan.AddSlowWindow(t0, t0 + Seconds(100), 3.0);
  plan.AddGcWindow(t0, t0 + Seconds(100), Milliseconds(20), 0.3);
  plan.AddGcWindow(t0, t0 + Seconds(100), Milliseconds(10), 0.9);

  // All open windows report together: the worst slowdown, the worst stall,
  // the sum-capped duty.
  DeviceHealth h = plan.Health();
  EXPECT_FALSE(h.unavailable);
  EXPECT_DOUBLE_EQ(h.latency_factor, 3.0);
  EXPECT_DOUBLE_EQ(h.gc_stall_s, 0.020);
  EXPECT_DOUBLE_EQ(h.gc_duty, 1.0);  // 0.3 + 0.9, capped

  // A down window opening while the slow window is active must surface in
  // Health *and* reject ops in Judge, even though it is not the first active
  // window in registration order.
  plan.AddDownWindow(t0, t0 + Seconds(50));
  h = plan.Health();
  EXPECT_TRUE(h.unavailable);
  EXPECT_DOUBLE_EQ(h.latency_factor, 3.0);
  EXPECT_EQ(plan.Judge(false, 0, kPageSize), Err::kUnavailable);

  // Past the down window, the slow + GC composite remains.
  clock.Advance(Seconds(60));
  h = plan.Health();
  EXPECT_FALSE(h.unavailable);
  EXPECT_DOUBLE_EQ(h.latency_factor, 3.0);
  EXPECT_DOUBLE_EQ(h.gc_duty, 1.0);
  EXPECT_EQ(plan.Judge(false, 0, kPageSize), Err::kOk);
}

TEST(FaultSledsTest, TapeWindowsInflateTapeLevelSleds) {
  // A fault window on a tape cartridge must flow through HsmFs::LevelHealth
  // into the tape-level SLEDs (it used to be dropped: the tape levels always
  // reported healthy).
  KernelConfig config;
  config.cache.capacity_pages = 1024;
  SimKernel kernel(config);
  HsmFsConfig hc;
  hc.num_tapes = 2;
  auto fs_owned = std::make_unique<HsmFs>("hsm", hc);
  HsmFs* fs = fs_owned.get();
  ASSERT_TRUE(kernel.Mount("/", std::move(fs_owned)).ok());
  Process& proc = kernel.CreateProcess("test");

  const int64_t file_bytes = 64 * kPageSize;
  {
    const int fd = kernel.Create(proc, "/f").value();
    const std::string data(static_cast<size_t>(file_bytes), 't');
    ASSERT_TRUE(kernel.Write(proc, fd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(kernel.Close(proc, fd).ok());
  }
  kernel.FlushAllDirty();
  const InodeNum ino = kernel.Stat(proc, "/f").value().ino;
  ASSERT_TRUE(fs->Migrate(ino).ok());  // only copy now lives on tape
  kernel.DropCaches();

  const int fd = kernel.Open(proc, "/f").value();
  const SledVector baseline = kernel.IoctlSledsGet(proc, fd).value();
  ASSERT_FALSE(baseline.empty());
  EXPECT_FALSE(baseline.front().unavailable);

  // Slow window on the cartridge holding the file: the tape-level estimate
  // must inflate by the window's factor.
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
  fs->changer().tape(fs->TapeOf(ino)).InjectFaults(plan);
  plan->AttachClock(&kernel.clock());
  const TimePoint now = kernel.clock().Now();
  plan->AddSlowWindow(now, now + Seconds(100), 4.0);
  const SledVector slow = kernel.IoctlSledsGet(proc, fd).value();
  ASSERT_EQ(slow.size(), baseline.size());
  EXPECT_DOUBLE_EQ(slow.front().latency, 4.0 * baseline.front().latency);
  EXPECT_FALSE(slow.front().unavailable);

  // Down window: the tape level must go unavailable with ballooned latency.
  plan->AddDownWindow(now, now + Seconds(100));
  const SledVector down = kernel.IoctlSledsGet(proc, fd).value();
  EXPECT_TRUE(down.front().unavailable);
  EXPECT_EQ(down.front().latency, kernel.config().fault.unavailable_latency_s);

  // Both windows closed: healthy estimates return.
  kernel.clock().Advance(Seconds(200));
  const SledVector healed = kernel.IoctlSledsGet(proc, fd).value();
  EXPECT_FALSE(healed.front().unavailable);
  EXPECT_DOUBLE_EQ(healed.front().latency, baseline.front().latency);
}

TEST(FaultSledsTest, PickerPrunedBytesAccumulateAcrossRefreshes) {
  // Two tiers striped into one file; each tier goes down in turn. The bytes
  // pruned on the first refresh must still be counted after the second —
  // pruned_bytes accumulates over the picker's lifetime and resets only on a
  // full plan build.
  KernelConfig config;
  config.cache.capacity_pages = 1024;
  SimKernel kernel(config);
  ReplicatedFsConfig tc;  // one copy per stripe: stripe s on tier s % 2
  tc.stripe_pages = 8;
  tc.replication_factor = 1;
  DiskDeviceConfig dc0;
  dc0.seed = 11;
  DiskDeviceConfig dc1;
  dc1.seed = 12;
  std::vector<std::unique_ptr<StorageDevice>> tiers;
  tiers.push_back(std::make_unique<DiskDevice>(dc0, "t0"));
  tiers.push_back(std::make_unique<DiskDevice>(dc1, "t1"));
  auto fs_owned = std::make_unique<ReplicatedFs>("tiered", std::move(tiers), tc);
  ReplicatedFs* fs = fs_owned.get();
  ASSERT_TRUE(kernel.Mount("/", std::move(fs_owned)).ok());
  Process& proc = kernel.CreateProcess("test");

  const int64_t file_pages = 64;  // 8 stripes: even on tier 0, odd on tier 1
  {
    const int fd = kernel.Create(proc, "/f").value();
    const std::string data(static_cast<size_t>(file_pages * kPageSize), 's');
    ASSERT_TRUE(kernel.Write(proc, fd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(kernel.Close(proc, fd).ok());
  }
  kernel.FlushAllDirty();
  kernel.DropCaches();

  const int fd = kernel.Open(proc, "/f").value();
  PickerOptions opts;
  opts.preferred_chunk_bytes = tc.stripe_pages * kPageSize;
  opts.refresh_every_n_picks = 1;
  opts.prune_unavailable = true;
  auto picker = SledsPicker::Create(kernel, proc, fd, opts).value();
  EXPECT_EQ(picker->pruned_bytes(), 0);

  auto down = [&](int tier) {
    auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});
    fs->replica(tier).InjectFaults(plan);
    plan->AttachClock(&kernel.clock());
    plan->AddDownWindow(kernel.clock().Now(), kernel.clock().Now() + Seconds(3600));
  };

  // Pick 1 (no refresh yet): stripe 0, on tier 0. Then tier 0 goes down.
  const auto p1 = picker->NextRead().value();
  EXPECT_EQ(p1.offset, 0);
  down(0);
  // Pick 2 refreshes: the remaining tier-0 stripes (2, 4, 6) are pruned.
  const auto p2 = picker->NextRead().value();
  EXPECT_EQ(p2.offset, tc.stripe_pages * kPageSize);  // stripe 1, tier 1
  const int64_t pruned_after_first = picker->pruned_bytes();
  EXPECT_EQ(pruned_after_first, 3 * tc.stripe_pages * kPageSize);
  // Tier 1 goes down too; pick 3 refreshes, prunes the rest, and finishes.
  down(1);
  const auto p3 = picker->NextRead().value();
  EXPECT_EQ(p3.length, 0);
  EXPECT_TRUE(picker->done());
  // Cumulative: stripes 2, 4, 6 (tier 0) + 3, 5, 7 (tier 1); the regression
  // was forgetting the first refresh's bytes here.
  EXPECT_EQ(picker->pruned_bytes(), pruned_after_first + 3 * tc.stripe_pages * kPageSize);
}

}  // namespace
}  // namespace sled
