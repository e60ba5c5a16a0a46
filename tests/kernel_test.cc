// Tests for SimKernel: syscalls, cache integration, readahead, fault
// accounting, writeback, and the SLEDs ioctls.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/fs/hsm_fs.h"
#include "src/kernel/sim_kernel.h"

namespace sled {
namespace {

KernelConfig SmallKernelConfig(int64_t cache_pages = 64) {
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  return config;
}

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(int64_t cache_pages = 64) {
  World w;
  w.kernel = std::make_unique<SimKernel>(SmallKernelConfig(cache_pages));
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

void WriteFile(SimKernel& k, Process& p, const std::string& path, const std::string& data) {
  const int fd = k.Create(p, path).value();
  ASSERT_TRUE(k.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.Close(p, fd).ok());
}

std::string ReadFile(SimKernel& k, Process& p, const std::string& path) {
  const int fd = k.Open(p, path).value();
  std::string out;
  char buf[8192];
  while (true) {
    const int64_t n = k.Read(p, fd, std::span<char>(buf, sizeof(buf))).value();
    if (n == 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  EXPECT_TRUE(k.Close(p, fd).ok());
  return out;
}

TEST(KernelTest, WriteReadRoundTrip) {
  World w = MakeWorld();
  const std::string payload = "The quick brown fox\njumps over the lazy dog\n";
  WriteFile(*w.kernel, *w.proc, "/f.txt", payload);
  EXPECT_EQ(ReadFile(*w.kernel, *w.proc, "/f.txt"), payload);
  EXPECT_EQ(w.kernel->Stat(*w.proc, "/f.txt").value().size,
            static_cast<int64_t>(payload.size()));
}

TEST(KernelTest, FdErrors) {
  World w = MakeWorld();
  char buf[16];
  EXPECT_EQ(w.kernel->Read(*w.proc, 42, std::span<char>(buf, sizeof(buf))).error(), Err::kBadF);
  EXPECT_EQ(w.kernel->Close(*w.proc, 42).error(), Err::kBadF);
  EXPECT_EQ(w.kernel->Open(*w.proc, "/missing").error(), Err::kNoEnt);
  ASSERT_TRUE(w.kernel->vfs().CreateDir("/d").ok());
  EXPECT_EQ(w.kernel->Open(*w.proc, "/d").error(), Err::kIsDir);
}

TEST(KernelTest, LseekWhence) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(100, 'x'));
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, 10, Whence::kSet).value(), 10);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, 5, Whence::kCur).value(), 15);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, -20, Whence::kEnd).value(), 80);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, -200, Whence::kEnd).error(), Err::kInval);
  // Hostile offsets: the sum must not overflow, and no offset passes
  // kMaxFileBytes.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, kMax, Whence::kCur).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, kMax, Whence::kEnd).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, kMax - 2, Whence::kSet).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, kMaxFileBytes + 1, Whence::kSet).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Lseek(*w.proc, fd, 0, Whence::kCur).value(), 80);
  // A write whose end would pass the bound is refused before any byte lands
  // or the size changes; so is a truncate past it.
  ASSERT_EQ(w.kernel->Lseek(*w.proc, fd, kMaxFileBytes - 8, Whence::kSet).value(),
            kMaxFileBytes - 8);
  const std::string tail(16, 't');
  EXPECT_EQ(w.kernel->Write(*w.proc, fd, std::span<const char>(tail.data(), tail.size())).error(),
            Err::kInval);
  EXPECT_EQ(w.kernel->Ftruncate(*w.proc, fd, kMax).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Ftruncate(*w.proc, fd, kMaxFileBytes + 1).error(), Err::kInval);
  EXPECT_EQ(w.kernel->Stat(*w.proc, "/f").value().size, 100);
  EXPECT_EQ(ReadFile(*w.kernel, *w.proc, "/f"), std::string(100, 'x'));
}

TEST(KernelTest, ColdReadFaultsWarmReadHits) {
  World w = MakeWorld(/*cache_pages=*/256);
  const std::string data(64 * kPageSize, 'd');
  WriteFile(*w.kernel, *w.proc, "/big", data);
  w.kernel->DropCaches();

  Process& p = w.kernel->CreateProcess("reader");
  (void)ReadFile(*w.kernel, p, "/big");
  EXPECT_EQ(p.stats().major_faults, 64);  // every page from the device

  Process& p2 = w.kernel->CreateProcess("reader2");
  (void)ReadFile(*w.kernel, p2, "/big");
  EXPECT_EQ(p2.stats().major_faults, 0);  // warm cache
  EXPECT_GT(p2.stats().minor_faults, 0);
  EXPECT_LT(p2.stats().elapsed(), p.stats().elapsed());
}

TEST(KernelTest, ReadAheadWindowGrowsForSequentialAccess) {
  World w = MakeWorld(/*cache_pages=*/512);
  const std::string data(256 * kPageSize, 'd');
  WriteFile(*w.kernel, *w.proc, "/big", data);
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("seq");
  (void)ReadFile(*w.kernel, p, "/big");
  // Sequential streaming: most pages arrive via readahead, so there are far
  // fewer fault *events* than pages (window grows 4,8,16,32,32...).
  EXPECT_EQ(p.stats().major_faults, 256);
  EXPECT_GT(w.kernel->stats().readahead_pages, 150);
}

TEST(KernelTest, RandomAccessResetsReadAhead) {
  World w = MakeWorld(/*cache_pages=*/512);
  const std::string data(256 * kPageSize, 'd');
  WriteFile(*w.kernel, *w.proc, "/big", data);
  w.kernel->DropCaches();
  w.kernel->stats();  // (stats are cumulative; use a fresh reader)
  Process& p = w.kernel->CreateProcess("rand");
  const int fd = w.kernel->Open(p, "/big").value();
  char buf[64];
  // Stride backwards so no access is sequential.
  for (int64_t page = 248; page >= 0; page -= 8) {
    ASSERT_TRUE(w.kernel->Lseek(p, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(p, fd, std::span<char>(buf, sizeof(buf))).ok());
  }
  ASSERT_TRUE(w.kernel->Close(p, fd).ok());
  // Each miss uses the minimum window (4 pages): 32 events * 4 pages.
  EXPECT_EQ(p.stats().major_faults, 32 * 4);
}

TEST(KernelTest, CacheSmallerThanFileEvicts) {
  World w = MakeWorld(/*cache_pages=*/32);
  const std::string data(64 * kPageSize, 'd');
  WriteFile(*w.kernel, *w.proc, "/big", data);
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("reader");
  (void)ReadFile(*w.kernel, p, "/big");
  EXPECT_LE(w.kernel->cache().size_pages(), 32);
  // Second linear pass also faults everything: the Figure 3 pathology.
  Process& p2 = w.kernel->CreateProcess("reader2");
  (void)ReadFile(*w.kernel, p2, "/big");
  EXPECT_EQ(p2.stats().major_faults, 64);
}

TEST(KernelTest, DirtyPagesWriteBackOnEviction) {
  World w = MakeWorld(/*cache_pages=*/16);
  // Write 64 pages through a 16-page cache: most dirty pages must be evicted
  // and written back (in batches).
  const std::string data(64 * kPageSize, 'w');
  WriteFile(*w.kernel, *w.proc, "/out", data);
  (void)w.kernel->FlushAllDirty();
  EXPECT_EQ(w.kernel->stats().pages_written_back, 64);
  // Contents are intact after all that.
  EXPECT_EQ(ReadFile(*w.kernel, *w.proc, "/out"), data);
}

TEST(KernelTest, FsyncFlushesDirtyPages) {
  World w = MakeWorld();
  const std::string data(8 * kPageSize, 'w');
  const int fd = w.kernel->Create(*w.proc, "/out").value();
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  EXPECT_EQ(w.kernel->stats().pages_written_back, 0);
  ASSERT_TRUE(w.kernel->Fsync(*w.proc, fd).ok());
  EXPECT_EQ(w.kernel->stats().pages_written_back, 8);
  // Pages stay resident and clean: a second fsync writes nothing.
  ASSERT_TRUE(w.kernel->Fsync(*w.proc, fd).ok());
  EXPECT_EQ(w.kernel->stats().pages_written_back, 8);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, PartialPageOverwriteTriggersReadModifyWrite) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(4 * kPageSize, 'a'));
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("writer");
  const int fd = w.kernel->Open(p, "/f").value();
  ASSERT_TRUE(w.kernel->Lseek(p, fd, 100, Whence::kSet).ok());
  const std::string small = "xyz";
  ASSERT_TRUE(w.kernel->Write(p, fd, std::span<const char>(small.data(), small.size())).ok());
  EXPECT_EQ(p.stats().major_faults, 1);  // the read-modify-write fetch
  ASSERT_TRUE(w.kernel->Close(p, fd).ok());
  const std::string out = ReadFile(*w.kernel, p, "/f");
  EXPECT_EQ(out.substr(100, 3), "xyz");
  EXPECT_EQ(out[99], 'a');
  EXPECT_EQ(out[103], 'a');
}

TEST(KernelTest, FullPageOverwriteAvoidsRead) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(4 * kPageSize, 'a'));
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("writer");
  const int fd = w.kernel->Open(p, "/f").value();
  const std::string page(kPageSize, 'b');
  ASSERT_TRUE(w.kernel->Write(p, fd, std::span<const char>(page.data(), page.size())).ok());
  EXPECT_EQ(p.stats().major_faults, 0);  // no RMW needed
  ASSERT_TRUE(w.kernel->Close(p, fd).ok());
}

TEST(KernelTest, CreateTruncatesExisting) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "old contents");
  const int fd = w.kernel->Create(*w.proc, "/f").value();
  EXPECT_EQ(w.kernel->Fstat(*w.proc, fd).value().size, 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, UnlinkDropsCachedPages) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(8 * kPageSize, 'a'));
  EXPECT_GT(w.kernel->cache().size_pages(), 0);
  ASSERT_TRUE(w.kernel->Unlink(*w.proc, "/f").ok());
  EXPECT_EQ(w.kernel->cache().size_pages(), 0);
}

TEST(KernelTest, SledsGetCoalescesAndCoversFile) {
  World w = MakeWorld(/*cache_pages=*/32);
  const int64_t size = 64 * kPageSize + 123;  // ragged tail
  WriteFile(*w.kernel, *w.proc, "/f", std::string(size, 'a'));
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("scanner");
  const int fd = w.kernel->Open(p, "/f").value();

  // Cold: one SLED covering the whole file at disk characteristics.
  SledVector cold = w.kernel->IoctlSledsGet(p, fd).value();
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].offset, 0);
  EXPECT_EQ(cold[0].length, size);
  EXPECT_NEAR(cold[0].latency, 0.018, 0.002);

  // Touch the middle 8 pages, then re-scan: three SLEDs (disk, memory, disk).
  char buf[1];
  for (int64_t page = 20; page < 28; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(p, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(p, fd, std::span<char>(buf, 1)).ok());
  }
  SledVector warm = w.kernel->IoctlSledsGet(p, fd).value();
  ASSERT_GE(warm.size(), 3u);
  // Coverage invariant: contiguous, non-overlapping, exactly the file.
  int64_t covered = 0;
  for (const Sled& s : warm) {
    EXPECT_EQ(s.offset, covered);
    covered += s.length;
  }
  EXPECT_EQ(covered, size);
  // The middle SLED is memory-level with tiny latency.
  bool found_memory = false;
  for (const Sled& s : warm) {
    if (s.level == kMemoryLevel) {
      found_memory = true;
      EXPECT_LT(s.latency, 1e-5);
    }
  }
  EXPECT_TRUE(found_memory);
  ASSERT_TRUE(w.kernel->Close(p, fd).ok());
}

TEST(KernelTest, SledsGetOnEmptyFileIsEmpty) {
  World w = MakeWorld();
  const int fd = w.kernel->Create(*w.proc, "/empty").value();
  EXPECT_TRUE(w.kernel->IoctlSledsGet(*w.proc, fd).value().empty());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, SledsFillOverridesTableRow) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(4 * kPageSize, 'a'));
  w.kernel->DropCaches();
  // Level 1 is the disk (level 0 = memory). Install measured values.
  ASSERT_TRUE(w.kernel
                  ->IoctlSledsFill(*w.proc, 1,
                                   DeviceCharacteristics{Milliseconds(25), 5.0e6, {}})
                  .ok());
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  SledVector sleds = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  ASSERT_EQ(sleds.size(), 1u);
  EXPECT_NEAR(sleds[0].latency, 0.025, 1e-9);
  EXPECT_NEAR(sleds[0].bandwidth, 5.0e6, 1.0);
  EXPECT_EQ(w.kernel->IoctlSledsFill(*w.proc, 99, DeviceCharacteristics{}).error(), Err::kInval);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, ElapsedTimeAdvancesWithClock) {
  World w = MakeWorld();
  const TimePoint before = w.kernel->clock().Now();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(16 * kPageSize, 'a'));
  (void)ReadFile(*w.kernel, *w.proc, "/f");
  const TimePoint after = w.kernel->clock().Now();
  EXPECT_GT((after - before).nanos(), 0);
  EXPECT_GT(w.proc->stats().elapsed().nanos(), 0);
  EXPECT_GT(w.proc->stats().syscalls, 0);
}

TEST(KernelTest, SledsScanChargesCpuTime) {
  World w = MakeWorld(/*cache_pages=*/4096);
  WriteFile(*w.kernel, *w.proc, "/f", std::string(1024 * kPageSize, 'a'));
  Process& p = w.kernel->CreateProcess("scanner");
  const int fd = w.kernel->Open(p, "/f").value();
  const Duration cpu_before = p.stats().cpu_time;
  (void)w.kernel->IoctlSledsGet(p, fd).value();
  const Duration scan_cost = p.stats().cpu_time - cpu_before;
  // 1024 pages at 150 ns plus syscall overhead.
  EXPECT_GT(scan_cost.ToMicros(), 100.0);
  ASSERT_TRUE(w.kernel->Close(p, fd).ok());
}

TEST(KernelTest, TruncateDropsTailPages) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", std::string(8 * kPageSize, 'a'));
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  ASSERT_TRUE(w.kernel->Ftruncate(*w.proc, fd, 2 * kPageSize).ok());
  EXPECT_EQ(w.kernel->Fstat(*w.proc, fd).value().size, 2 * kPageSize);
  for (int64_t page : w.kernel->cache().ResidentPagesOf(
           Vfs::MakeFileId(1, w.kernel->vfs().Resolve("/f").value().ino))) {
    EXPECT_LT(page, 2);
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(KernelTest, ReadAtEofAndPastEof) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "abc");
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  char buf[8];
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 3, Whence::kSet).ok());
  EXPECT_EQ(w.kernel->Read(*w.proc, fd, std::span<char>(buf, 8)).value(), 0);
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 100, Whence::kSet).ok());  // legal sparse seek
  EXPECT_EQ(w.kernel->Read(*w.proc, fd, std::span<char>(buf, 8)).value(), 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, SparseWriteThroughSeek) {
  World w = MakeWorld();
  const int fd = w.kernel->Create(*w.proc, "/sparse").value();
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 2 * kPageSize + 10, Whence::kSet).ok());
  const std::string tail = "tail";
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(tail.data(), tail.size())).ok());
  EXPECT_EQ(w.kernel->Fstat(*w.proc, fd).value().size, 2 * kPageSize + 14);
  // The hole reads back as zeros.
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, kPageSize, Whence::kSet).ok());
  char c = 'x';
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&c, 1)).ok());
  EXPECT_EQ(c, '\0');
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(KernelTest, WritebackBatchesFlushAtThreshold) {
  KernelConfig config;
  config.cache.capacity_pages = 16;
  config.writeback_batch_pages = 8;
  config.io.mode = IoMode::kFifoSync;  // asserts the synchronous bdflush model
  auto kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  ASSERT_TRUE(kernel->Mount("/", std::move(fs)).ok());
  Process& p = kernel->CreateProcess("writer");
  // Write 64 dirty pages through a 16-page cache: evictions queue dirty
  // pages; each time 8 accumulate they flush.
  const std::string data(64 * kPageSize, 'w');
  const int fd = kernel->Create(p, "/out").value();
  ASSERT_TRUE(kernel->Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  EXPECT_GE(kernel->stats().pages_written_back, 40);  // most batches already flushed
  ASSERT_TRUE(kernel->Close(p, fd).ok());
}

TEST(KernelTest, SledsGetAcrossMultiLevelFs) {
  // An HSM file half-staged is impossible (whole-file staging), but a file
  // on a mounted tape vs offline tape shows distinct levels via the table.
  KernelConfig config;
  config.cache.capacity_pages = 64;
  auto kernel = std::make_unique<SimKernel>(config);
  HsmFsConfig hc;
  hc.staging_disk.capacity_bytes = 1LL << 30;
  auto hsm_fs = std::make_unique<HsmFs>("hsm", hc);
  HsmFs* hsm = hsm_fs.get();
  ASSERT_TRUE(kernel->Mount("/", std::move(hsm_fs)).ok());
  Process& p = kernel->CreateProcess("user");
  const int fd = kernel->Create(p, "/f").value();
  const std::string data(8 * kPageSize, 'h');
  ASSERT_TRUE(kernel->Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(kernel->Close(p, fd).ok());
  const InodeNum ino = kernel->vfs().Resolve("/f").value().ino;
  ASSERT_TRUE(hsm->Migrate(ino).ok());
  kernel->DropCaches();

  const int fd2 = kernel->Open(p, "/f").value();
  SledVector sleds = kernel->IoctlSledsGet(p, fd2).value();
  ASSERT_EQ(sleds.size(), 1u);
  // Mounted tape right after migration: the "tape-near" row (level index 2
  // in the table: memory=0, hsm-disk=1, tape-near=2, tape-far=3).
  EXPECT_EQ(kernel->sleds_table().row(sleds[0].level).name, "tape-near");
  EXPECT_GT(sleds[0].latency, 1.0);
  ASSERT_TRUE(kernel->Close(p, fd2).ok());
}

TEST(KernelTest, MinorAndMajorFaultAccountingDisjoint) {
  World w = MakeWorld(/*cache_pages=*/256);
  WriteFile(*w.kernel, *w.proc, "/f", std::string(32 * kPageSize, 'a'));
  w.kernel->DropCaches();
  Process& p = w.kernel->CreateProcess("reader");
  (void)ReadFile(*w.kernel, p, "/f");
  EXPECT_EQ(p.stats().major_faults, 32);
  const int64_t minor_first = p.stats().minor_faults;
  (void)ReadFile(*w.kernel, p, "/f");
  EXPECT_EQ(p.stats().major_faults, 32);  // unchanged
  EXPECT_GT(p.stats().minor_faults, minor_first);
}

TEST(KernelTest, IoTimeAndCpuTimeSeparated) {
  World w = MakeWorld(/*cache_pages=*/256);
  WriteFile(*w.kernel, *w.proc, "/f", std::string(32 * kPageSize, 'a'));
  w.kernel->DropCaches();
  Process& cold = w.kernel->CreateProcess("cold");
  (void)ReadFile(*w.kernel, cold, "/f");
  EXPECT_GT(cold.stats().io_time.nanos(), 0);
  Process& warm = w.kernel->CreateProcess("warm");
  (void)ReadFile(*w.kernel, warm, "/f");
  EXPECT_EQ(warm.stats().io_time.nanos(), 0);  // pure cache: no device time
  EXPECT_GT(warm.stats().cpu_time.nanos(), 0);
}

TEST(KernelTest, WritebackFlushDeduplicatesRequeuedPages) {
  // A page dirtied, evicted, re-dirtied, and evicted again sits in the
  // writeback queue twice; a flush must write it once.
  KernelConfig config;
  config.cache.capacity_pages = 4;
  config.writeback_batch_pages = 256;  // no flush until FlushAllDirty
  config.io.mode = IoMode::kFifoSync;  // asserts the synchronous bdflush model
  auto kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  ASSERT_TRUE(kernel->Mount("/", std::move(fs)).ok());
  Process& p = kernel->CreateProcess("writer");
  const std::string page(kPageSize, 'w');
  const int fd = kernel->Create(p, "/f").value();
  auto write_pages = [&](int64_t first, int n) {
    ASSERT_TRUE(kernel->Lseek(p, fd, first * kPageSize, Whence::kSet).ok());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(kernel->Write(p, fd, std::span<const char>(page.data(), page.size())).ok());
    }
  };
  write_pages(0, 6);  // pages 4,5 evict dirty pages 0,1 -> queue [0,1]
  write_pages(0, 1);  // page 0 dirty again, evicts 2 -> queue [0,1,2]
  write_pages(6, 4);  // evicts 3,4,5 and page 0 a second time -> queue [0,1,2,3,4,5,0]
  const int64_t queued = kernel->obs().metrics().counter("kernel.writeback_queued");
  EXPECT_EQ(queued, 7);
  (void)kernel->FlushAllDirty();
  // The queue flush wrote 6 unique pages, not 7; the 4 still-resident dirty
  // pages (6..9) flushed directly.
  EXPECT_EQ(kernel->obs().metrics().counter("kernel.writeback_pages"), 6);
  EXPECT_EQ(kernel->stats().pages_written_back, 10);
  ASSERT_TRUE(kernel->Close(p, fd).ok());
}

TEST(KernelTest, SynchronousFlushTimeIsChargedToTriggeringProcess) {
  // With one process driving everything, every nanosecond the clock advances
  // must land on that process's cpu or io account — including the device time
  // of synchronous writeback flushes. An uncharged flush breaks the equality.
  KernelConfig config;
  config.cache.capacity_pages = 16;
  config.writeback_batch_pages = 8;
  config.io.mode = IoMode::kFifoSync;  // asserts the synchronous bdflush model
  auto kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  ASSERT_TRUE(kernel->Mount("/", std::move(fs)).ok());
  Process& p = kernel->CreateProcess("writer");
  const std::string data(64 * kPageSize, 'w');
  const int fd = kernel->Create(p, "/out").value();
  ASSERT_TRUE(kernel->Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(kernel->Close(p, fd).ok());
  EXPECT_GT(kernel->obs().metrics().counter("kernel.writeback_flushes"), 0);
  EXPECT_EQ(kernel->clock().Now().since_epoch().nanos(), p.stats().elapsed().nanos());
}

TEST(KernelTest, ClockIsEveryProcessElapsedPlusBackgroundIo) {
  // One charge path: the clock advances only on a process's cpu or io
  // account or on the background ledger, so with two processes sharing the
  // kernel the clock is their elapsed times plus background_io_time in every
  // I/O mode. The workload writes past a small cache (writeback batches
  // flush), reads with readahead, and calls Fsync, FlushAllDirty and
  // RunMaintenance.
  for (const IoMode mode : {IoMode::kFifoSync, IoMode::kFifoAsync, IoMode::kElevator}) {
    KernelConfig config;
    config.cache.capacity_pages = 16;
    config.writeback_batch_pages = 8;
    config.io.mode = mode;
    SimKernel kernel(config);
    auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
    ASSERT_TRUE(kernel.Mount("/", std::move(fs)).ok());
    Process& writer = kernel.CreateProcess("writer");
    Process& reader = kernel.CreateProcess("reader");
    const std::string data(64 * kPageSize, 'w');
    const int wfd = kernel.Create(writer, "/out").value();
    ASSERT_TRUE(kernel.Write(writer, wfd, std::span<const char>(data.data(), data.size())).ok());
    ASSERT_TRUE(kernel.Fsync(writer, wfd).ok());
    const int rfd = kernel.Open(reader, "/out").value();
    std::vector<char> buf(static_cast<size_t>(3 * kPageSize));
    ASSERT_TRUE(kernel.Read(reader, rfd, std::span<char>(buf.data(), buf.size())).ok());
    // Two dirty runs: the engine dispatches the first at once and queues the
    // second, so FlushAllDirty's drain waits in every mode.
    ASSERT_TRUE(kernel.Write(writer, wfd, std::span<const char>(data.data(), 8 * kPageSize)).ok());
    ASSERT_TRUE(kernel.Lseek(writer, wfd, 0, Whence::kSet).ok());
    ASSERT_TRUE(kernel.Write(writer, wfd, std::span<const char>(data.data(), 2 * kPageSize)).ok());
    (void)kernel.FlushAllDirty();
    while (kernel.Read(reader, rfd, std::span<char>(buf.data(), buf.size())).value() > 0) {
    }
    (void)kernel.RunMaintenance();
    ASSERT_TRUE(kernel.Close(reader, rfd).ok());
    ASSERT_TRUE(kernel.Close(writer, wfd).ok());
    EXPECT_GT(reader.stats().major_faults, 0);
    EXPECT_GT(kernel.stats().pages_written_back, 0);
    EXPECT_GT(kernel.stats().background_io_time.nanos(), 0);
    EXPECT_EQ(kernel.clock().Now().since_epoch().nanos(),
              writer.stats().elapsed().nanos() + reader.stats().elapsed().nanos() +
                  kernel.stats().background_io_time.nanos())
        << "mode " << static_cast<int>(mode);
  }
}

TEST(KernelTest, ReadAndMmapReadShareReadaheadPlanning) {
  // Read, MmapRead and completion programs fault pages through one
  // demand-paging loop: identical access patterns produce identical fault
  // counts and readahead volume.
  enum class Path { kRead, kMmap, kProgram };
  auto run = [](Path path) {
    World w = MakeWorld(/*cache_pages=*/256);
    const std::string data(64 * kPageSize, 'm');
    WriteFile(*w.kernel, *w.proc, "/f", data);
    w.kernel->DropCaches();
    Process& p = w.kernel->CreateProcess("reader");
    if (path == Path::kRead) {
      EXPECT_EQ(ReadFile(*w.kernel, p, "/f"), data);
    } else {
      // Touch the file in the same 8 KiB strides ReadFile uses, so every
      // path presents identical demand patterns to the planner.
      const int fd = w.kernel->Open(p, "/f").value();
      if (path == Path::kMmap) {
        for (int64_t off = 0; off < static_cast<int64_t>(data.size()); off += 8192) {
          EXPECT_TRUE(w.kernel->MmapRead(p, fd, off, 8192).ok());
        }
      } else {
        ProgSpec spec;
        spec.kind = ProgKind::kCount;
        spec.chunk_bytes = 8192;
        EXPECT_TRUE(w.kernel->InstallProgram(p, fd, spec).ok());
        EXPECT_EQ(w.kernel->RunProgram(p, fd).value().status, ProgStatus::kOk);
      }
      EXPECT_TRUE(w.kernel->Close(p, fd).ok());
    }
    return std::tuple(p.stats().major_faults, w.kernel->stats().readahead_pages,
                      w.kernel->stats().pages_paged_in);
  };
  const auto read = run(Path::kRead);
  EXPECT_EQ(read, run(Path::kMmap));
  EXPECT_EQ(read, run(Path::kProgram));
}

TEST(KernelTest, ReadaheadWindowGrowsFromMinAndResetsOnJump) {
  KernelConfig config;
  config.cache.capacity_pages = 256;
  config.min_readahead_pages = 2;
  config.max_readahead_pages = 8;
  auto kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  ASSERT_TRUE(kernel->Mount("/", std::move(fs)).ok());
  Process& p = kernel->CreateProcess("writer");
  WriteFile(*kernel, p, "/f", std::string(64 * kPageSize, 'r'));
  kernel->DropCaches();
  Process& r = kernel->CreateProcess("reader");
  const int fd = kernel->Open(r, "/f").value();
  char c;
  auto read_at = [&](int64_t page) {
    ASSERT_TRUE(kernel->Lseek(r, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(kernel->Read(r, fd, std::span<char>(&c, 1)).ok());
  };
  int64_t before = kernel->stats().pages_paged_in;
  read_at(10);  // first access: minimum window
  EXPECT_EQ(kernel->stats().pages_paged_in - before, 2);
  before = kernel->stats().pages_paged_in;
  read_at(12);  // sequential (lands on last_demand_page): window doubles
  EXPECT_EQ(kernel->stats().pages_paged_in - before, 4);
  before = kernel->stats().pages_paged_in;
  read_at(40);  // jump: window resets to the minimum
  EXPECT_EQ(kernel->stats().pages_paged_in - before, 2);
  ASSERT_TRUE(kernel->Close(r, fd).ok());
}

TEST(KernelTest, SinglePageCacheKernelRefusesSledLocks) {
  World w = MakeWorld(/*cache_pages=*/1);
  WriteFile(*w.kernel, *w.proc, "/f", std::string(kPageSize, 'x'));
  const int fd = w.kernel->Open(*w.proc, "/f").value();
  char c;
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&c, 1)).ok());
  // The page is resident, but the half-capacity pin bound (1/2 = 0) refuses
  // every pin: the lock succeeds with zero pages pinned.
  EXPECT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, 0, kPageSize).value(), 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

}  // namespace
}  // namespace sled
