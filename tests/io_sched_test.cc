// Tests for the event-driven I/O engine: DeviceQueue policy/coalescing/
// causality, IoScheduler lazy-replay determinism, the kernel's in-flight page
// lifecycle, and FIFO-vs-elevator differential invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/io/device_queue.h"
#include "src/io/io_scheduler.h"
#include "src/kernel/sim_kernel.h"

namespace sled {
namespace {

IoRequest MakeReq(int64_t id, int64_t first_page, int64_t count, int64_t device_addr,
                  TimePoint submit = TimePoint(), uint64_t file = 1) {
  IoRequest r;
  r.id = id;
  r.file = file;
  r.ino = 1;
  r.first_page = first_page;
  r.count = count;
  r.device_addr = device_addr;
  r.device_end_addr = device_addr >= 0 ? device_addr + count * kPageSize : -1;
  r.submit = submit;
  return r;
}

// ---- DeviceQueue unit tests ----

TEST(DeviceQueueTest, FifoDispatchesInArrivalOrder) {
  DeviceQueue q("disk", DeviceQueueConfig{});
  q.Push(MakeReq(1, 100, 1, 400 * kPageSize));
  q.Push(MakeReq(2, 0, 1, 0));
  q.Push(MakeReq(3, 50, 1, 200 * kPageSize));
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 1);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 2);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 3);
  EXPECT_TRUE(q.empty());
}

TEST(DeviceQueueTest, ClookServesAscendingThenWraps) {
  DeviceQueueConfig config;
  config.policy = IoPolicy::kClook;
  DeviceQueue q("disk", config);
  // Head starts at 0; addresses 40, 10, 30, 20 (in pages).
  q.Push(MakeReq(1, 40, 1, 40 * kPageSize));
  q.Push(MakeReq(2, 10, 1, 10 * kPageSize));
  q.Push(MakeReq(3, 30, 1, 30 * kPageSize));
  q.Push(MakeReq(4, 20, 1, 20 * kPageSize));
  // One ascending sweep: 10, 20, 30, 40.
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 2);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 4);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 3);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 1);
  // Head is now past 40; a lower-address request is served after the wrap,
  // behind one at or ahead of the head.
  q.Push(MakeReq(5, 5, 1, 5 * kPageSize));
  q.Push(MakeReq(6, 60, 1, 60 * kPageSize));
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 6);
  EXPECT_EQ(q.PopBatch(TimePoint()).merged.id, 5);
}

TEST(DeviceQueueTest, CoalesceMergesAdjacentRequestsBothWays) {
  DeviceQueueConfig config;
  config.policy = IoPolicy::kClook;
  DeviceQueue q("disk", config);
  // Three requests, contiguous in pages and device addresses, submitted out
  // of page order. The primary (lowest address) attracts both neighbours.
  q.Push(MakeReq(1, 8, 4, 8 * kPageSize));
  q.Push(MakeReq(2, 0, 4, 0));
  q.Push(MakeReq(3, 4, 4, 4 * kPageSize));
  const IoBatch batch = q.PopBatch(TimePoint());
  EXPECT_EQ(batch.merged.first_page, 0);
  EXPECT_EQ(batch.merged.count, 12);
  ASSERT_EQ(batch.parts.size(), 3u);
  EXPECT_EQ(batch.parts[0].id, 2);
  EXPECT_EQ(batch.parts[1].id, 3);
  EXPECT_EQ(batch.parts[2].id, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().merged, 2);
}

TEST(DeviceQueueTest, CoalesceRespectsMergeBoundAndGaps) {
  DeviceQueueConfig config;
  config.policy = IoPolicy::kClook;
  DeviceQueue q("disk", config);
  const int64_t n = kMaxMergePages - 2;
  q.Push(MakeReq(1, 0, n, 0));
  q.Push(MakeReq(2, n, 4, n * kPageSize));  // would exceed the merge bound
  q.Push(MakeReq(3, n + 20, 4, (n + 20) * kPageSize));  // not adjacent at all
  const IoBatch batch = q.PopBatch(TimePoint());
  EXPECT_EQ(batch.merged.count, n);
  EXPECT_EQ(q.depth(), 2);
  // File-page adjacency without device-address adjacency must not merge
  // (interleaved extents of different files).
  DeviceQueue q2("disk", config);
  q2.Push(MakeReq(10, 0, 2, 0));
  q2.Push(MakeReq(11, 2, 2, 64 * kPageSize));
  EXPECT_EQ(q2.PopBatch(TimePoint()).merged.count, 2);
}

TEST(DeviceQueueTest, CausalityIgnoresRequestsSubmittedAfterDecisionInstant) {
  DeviceQueueConfig config;
  config.policy = IoPolicy::kClook;
  DeviceQueue q("disk", config);
  const TimePoint t0;
  const TimePoint t1 = t0 + Milliseconds(5);
  q.Push(MakeReq(1, 100, 1, 100 * kPageSize, t0));
  q.Push(MakeReq(2, 10, 1, 10 * kPageSize, t1));
  // Decision at t0: request 2 does not exist yet, even though its address
  // would win the sweep.
  EXPECT_EQ(q.PopBatch(t0).merged.id, 1);
  EXPECT_EQ(q.PopBatch(t1).merged.id, 2);
}

// ---- kernel integration ----

std::unique_ptr<SimKernel> MakeEngineKernel(IoMode mode, int64_t cache_pages = 256) {
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  config.io.mode = mode;
  auto kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(kernel->Mount("/", std::move(fs)).ok());
  return kernel;
}

void WriteFile(SimKernel& k, Process& p, const std::string& path, const std::string& data) {
  const int fd = k.Create(p, path).value();
  ASSERT_TRUE(k.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.Close(p, fd).ok());
}

std::string ReadFile(SimKernel& k, Process& p, const std::string& path) {
  const int fd = k.Open(p, path).value();
  std::string out;
  char buf[16384];
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

// A 4-process interleaved read workload over 4 files; returns the kernel
// after all reads completed and dirty state flushed.
std::unique_ptr<SimKernel> RunInterleavedWorkload(IoMode mode) {
  auto kernel = MakeEngineKernel(mode, /*cache_pages=*/128);
  Process& gen = kernel->CreateProcess("gen");
  const std::string data(64 * kPageSize, 'd');
  for (int i = 0; i < 4; ++i) {
    WriteFile(*kernel, gen, "/f" + std::to_string(i), data);
  }
  kernel->DropCaches();
  std::vector<Process*> readers;
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    Process& p = kernel->CreateProcess("reader" + std::to_string(i));
    readers.push_back(&p);
    fds.push_back(kernel->Open(p, "/f" + std::to_string(i)).value());
  }
  std::vector<char> buf(8 * kPageSize);
  bool progress = true;
  while (progress) {
    progress = false;
    for (int i = 0; i < 4; ++i) {
      const int64_t n =
          kernel->Read(*readers[i], fds[i], std::span<char>(buf.data(), buf.size())).value();
      progress = progress || n > 0;
    }
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(kernel->Close(*readers[i], fds[i]).ok());
  }
  (void)kernel->FlushAllDirty();
  return kernel;
}

TEST(IoEngineTest, ElevatorRunsAreDeterministic) {
  auto a = RunInterleavedWorkload(IoMode::kElevator);
  auto b = RunInterleavedWorkload(IoMode::kElevator);
  EXPECT_EQ(a->clock().Now().since_epoch().nanos(), b->clock().Now().since_epoch().nanos());
  // Full metric export byte-identical: every counter, histogram, and gauge.
  EXPECT_EQ(a->obs().metrics().ToJson(), b->obs().metrics().ToJson());
}

TEST(IoEngineTest, FifoVsElevatorDifferentialInvariants) {
  auto fifo = RunInterleavedWorkload(IoMode::kFifoAsync);
  auto elevator = RunInterleavedWorkload(IoMode::kElevator);
  // Both modes read every byte of every file through the syscall layer.
  EXPECT_GE(fifo->stats().pages_paged_in, 4 * 64);
  EXPECT_GE(elevator->stats().pages_paged_in, 4 * 64);
  const MetricRegistry& mf = fifo->obs().metrics();
  const MetricRegistry& me = elevator->obs().metrics();
  // Device-level bytes read cover the full data set in both modes (pages are
  // requested at most once while in flight, so nothing is double-fetched:
  // bytes_read equals pages_paged_in exactly).
  EXPECT_EQ(mf.counter("dev.disk.bytes_read"), fifo->stats().pages_paged_in * kPageSize);
  EXPECT_EQ(me.counter("dev.disk.bytes_read"), elevator->stats().pages_paged_in * kPageSize);
  // The elevator never repositions more than FIFO on the same workload.
  EXPECT_LE(me.counter("dev.disk.repositions"), mf.counter("dev.disk.repositions"));
  // And with coalescing it needs no more device accesses.
  EXPECT_LE(me.counter("dev.disk.reads"), mf.counter("dev.disk.reads"));
}

TEST(IoEngineTest, EngineReadsReturnCorrectData) {
  auto kernel = MakeEngineKernel(IoMode::kElevator, /*cache_pages=*/32);
  Process& p = kernel->CreateProcess("reader");
  std::string data;
  for (int i = 0; i < 24 * kPageSize / 16; ++i) {
    data += "0123456789abcde\n";
  }
  WriteFile(*kernel, p, "/f", data);
  kernel->DropCaches();
  EXPECT_EQ(ReadFile(*kernel, p, "/f"), data);
  // Asynchronous readahead actually happened and was waited on.
  EXPECT_GT(kernel->stats().readahead_pages, 0);
  EXPECT_GT(p.stats().io_waits, 0);
}

TEST(IoEngineTest, InFlightPagesAreNotEvictedOrRerequested) {
  // Direct cache-level contract the engine depends on: an in-flight page
  // survives any number of insertions and becomes evictable after arrival.
  PageCacheConfig config;
  config.capacity_pages = 4;
  PageCache cache(config);
  cache.Insert({1, 0}, /*dirty=*/false, /*in_flight=*/true);
  cache.Insert({1, 1}, /*dirty=*/false, /*in_flight=*/true);
  EXPECT_EQ(cache.in_flight_pages(), 2);
  EXPECT_TRUE(cache.IsInFlight({1, 0}));
  for (int64_t q = 2; q < 10; ++q) {
    cache.Insert({1, q}, /*dirty=*/false);
  }
  // Both in-flight pages are still resident; the churn evicted around them.
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.Contains({1, 1}));
  cache.MarkArrived({1, 0});
  cache.MarkArrived({1, 1});
  EXPECT_EQ(cache.in_flight_pages(), 0);
  for (int64_t q = 10; q < 16; ++q) {
    cache.Insert({1, q}, /*dirty=*/false);
  }
  // Arrived pages lost their exemption and were evicted by the LRU churn.
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
}

TEST(IoEngineTest, EngineKernelNeverRerequestsInFlightPages) {
  // With a tiny cache and the elevator engine, sequential reads with
  // readahead exercise submit/await/harvest heavily; the device must still
  // read each page exactly once (nothing double-fetched, nothing lost).
  auto kernel = MakeEngineKernel(IoMode::kElevator, /*cache_pages=*/16);
  Process& p = kernel->CreateProcess("reader");
  const std::string data(48 * kPageSize, 'r');
  WriteFile(*kernel, p, "/f", data);
  kernel->DropCaches();
  EXPECT_EQ(ReadFile(*kernel, p, "/f").size(), data.size());
  EXPECT_EQ(kernel->obs().metrics().counter("dev.disk.bytes_read"),
            kernel->stats().pages_paged_in * kPageSize);
  EXPECT_EQ(kernel->stats().pages_paged_in, 48);
}

TEST(IoEngineTest, TruncateCancelsQueuedRequests) {
  auto kernel = MakeEngineKernel(IoMode::kElevator, /*cache_pages=*/64);
  Process& p = kernel->CreateProcess("user");
  const std::string data(32 * kPageSize, 't');
  WriteFile(*kernel, p, "/f", data);
  kernel->DropCaches();
  const int fd = kernel->Open(p, "/f").value();
  // Demand the first page; the growing readahead window queues pages beyond
  // it asynchronously.
  std::vector<char> buf(kPageSize);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(kernel->Read(p, fd, std::span<char>(buf.data(), buf.size())).ok());
  }
  // Truncate to one page while readahead may still be queued or in flight.
  ASSERT_TRUE(kernel->Ftruncate(p, fd, kPageSize).ok());
  EXPECT_EQ(kernel->Fstat(p, fd).value().size, kPageSize);
  // The kernel survives the cancellation and subsequent reads see EOF.
  ASSERT_TRUE(kernel->Lseek(p, fd, 0, Whence::kSet).ok());
  EXPECT_EQ(kernel->Read(p, fd, std::span<char>(buf.data(), buf.size())).value(),
            static_cast<int64_t>(kPageSize));
  EXPECT_EQ(kernel->Read(p, fd, std::span<char>(buf.data(), buf.size())).value(), 0);
  ASSERT_TRUE(kernel->Close(p, fd).ok());
  (void)kernel->FlushAllDirty();
}

TEST(IoEngineTest, ProgramCancelKeepsDispatchedReadsAwaited) {
  // A find-first program that matches early cancels the readahead queued past
  // the match. Reads the device has already dispatched own in-flight frames,
  // so they must stay tracked: a later Read of such a page waits for its
  // arrival instead of returning while the frame is still in flight.
  for (IoMode mode : {IoMode::kFifoAsync, IoMode::kElevator}) {
    SCOPED_TRACE(mode == IoMode::kElevator ? "elevator" : "fifo_async");
    auto kernel = MakeEngineKernel(mode);
    Process& p = kernel->CreateProcess("user");
    std::string data(256 * kPageSize, 'a');
    data.replace(3 * kPageSize + 100, 8, "XNEEDLEX");
    WriteFile(*kernel, p, "/f", data);
    kernel->DropCaches();
    const Vfs::Resolved r = kernel->vfs().Resolve("/f").value();
    const FileId fid = Vfs::MakeFileId(r.fs_id, r.ino);
    const int fd = kernel->Open(p, "/f").value();
    std::vector<char> buf(kPageSize);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(kernel->Read(p, fd, std::span<char>(buf.data(), buf.size())).ok());
    }
    ProgSpec spec;
    spec.kind = ProgKind::kFindFirst;
    spec.pattern = "XNEEDLEX";
    spec.chunk_bytes = kPageSize;
    ASSERT_TRUE(kernel->InstallProgram(p, fd, spec).ok());
    const ProgResult result = kernel->RunProgram(p, fd).value();
    ASSERT_TRUE(result.found);
    ASSERT_EQ(result.match_offset, 3 * kPageSize + 100);
    ASSERT_TRUE(kernel->Lseek(p, fd, 4 * kPageSize, Whence::kSet).ok());
    int early_returns = 0;
    for (int64_t page = 4; page < 256; ++page) {
      ASSERT_EQ(kernel->Read(p, fd, std::span<char>(buf.data(), buf.size())).value(),
                static_cast<int64_t>(kPageSize));
      if (kernel->cache().IsInFlight({fid, page})) {
        ++early_returns;
      }
    }
    EXPECT_EQ(early_returns, 0);
    ASSERT_TRUE(kernel->Close(p, fd).ok());
  }
}

TEST(IoEngineTest, DefaultModeAttachesNoQueues) {
  auto kernel = MakeEngineKernel(IoMode::kFifoSync);
  EXPECT_EQ(kernel->io_mode(), IoMode::kFifoSync);
  int queues = 0;
  kernel->io_scheduler().ForEachQueue([&](uint32_t, const DeviceQueue&) { ++queues; });
  EXPECT_EQ(queues, 0);
}

}  // namespace
}  // namespace sled
