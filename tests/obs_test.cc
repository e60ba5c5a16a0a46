// Tests for the observability subsystem: histogram bucketing/quantiles,
// registry exports, the trace ring, and the determinism + zero-simulated-cost
// guarantees of kernel-wide instrumentation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>

#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/kernel/sim_kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/obs/trace.h"

namespace sled {
namespace {

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(Nanoseconds(1));
  }
  EXPECT_EQ(h.count(), 10);
  EXPECT_EQ(h.sum().nanos(), 10);
  EXPECT_EQ(h.min().nanos(), 1);
  EXPECT_EQ(h.max().nanos(), 1);
  EXPECT_EQ(h.Quantile(0.50).nanos(), 1);
  EXPECT_EQ(h.Quantile(0.99).nanos(), 1);
}

TEST(LatencyHistogramTest, QuantilesAreOrderedAndBounded) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 1000; ++v) {
    h.Record(Nanoseconds(v * 1000));  // 1 us .. 1 ms
  }
  const int64_t p50 = h.Quantile(0.50).nanos();
  const int64_t p95 = h.Quantile(0.95).nanos();
  const int64_t p99 = h.Quantile(0.99).nanos();
  EXPECT_LE(h.min().nanos(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max().nanos());
  // Log buckets with 4 sub-buckets: relative error of a quantile is <= 25%.
  EXPECT_NEAR(static_cast<double>(p50), 500e3, 0.25 * 500e3);
  EXPECT_NEAR(static_cast<double>(p99), 990e3, 0.25 * 990e3);
}

TEST(LatencyHistogramTest, BucketBoundsRoundTrip) {
  for (int64_t v : {0LL, 1LL, 3LL, 4LL, 5LL, 7LL, 100LL, 4096LL, 1000000LL, 123456789LL}) {
    const int index = LatencyHistogram::BucketIndex(v);
    EXPECT_LE(v, LatencyHistogram::BucketUpperBound(index)) << v;
    if (index > 0) {
      EXPECT_GT(v, LatencyHistogram::BucketUpperBound(index - 1)) << v;
    }
  }
  // Negative durations clamp into the zero bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(-5), 0);
}

TEST(MetricRegistryTest, CountersAccumulateAndExportSorted) {
  MetricRegistry m;
  m.Add("b.two", 2);
  m.Add("a.one");
  m.Add("b.two", 3);
  m.Observe("lat", Microseconds(10));
  EXPECT_EQ(m.counter("a.one"), 1);
  EXPECT_EQ(m.counter("b.two"), 5);
  EXPECT_EQ(m.counter("missing"), 0);
  EXPECT_EQ(m.histogram("missing"), nullptr);
  const std::string json = m.ToJson();
  // Sorted keys: "a.one" appears before "b.two".
  EXPECT_LT(json.find("\"a.one\""), json.find("\"b.two\""));
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  const std::string csv = m.ToCsv();
  EXPECT_NE(csv.find("counter,a.one,1\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,b.two,5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,1,10000,10000,10000,"), std::string::npos);
  // Identical state exports identical bytes.
  EXPECT_EQ(json, m.ToJson());
  EXPECT_EQ(csv, m.ToCsv());
}

TEST(TraceRingTest, DropsOldestAndKeepsGlobalSequence) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceRecord e;
    e.at = TimePoint() + Nanoseconds(i);
    e.a = i;
    ring.Push(std::move(e));
  }
  EXPECT_EQ(ring.total(), 10);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  const std::vector<TraceRecord> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + static_cast<int64_t>(i));  // oldest first
  }
  const std::string csv = ring.DumpCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "seq,t_ns,kind,pid,level,file,a,b,dur_ns,tag");
  // First data row carries the global sequence number of the oldest retained
  // event, so drops are visible.
  EXPECT_NE(csv.find("\n6,6,"), std::string::npos);
  // A bounded dump returns only the newest rows, sequence numbers intact.
  const std::string tail = ring.DumpCsv(2);
  EXPECT_EQ(tail.find("\n6,"), std::string::npos);
  EXPECT_NE(tail.find("\n8,"), std::string::npos);
  EXPECT_NE(tail.find("\n9,"), std::string::npos);

  // A one-slot ring (KernelConfig::trace_events = 1) keeps the newest.
  TraceRing one(1);
  for (int i = 0; i < 3; ++i) {
    TraceRecord e;
    e.a = i;
    one.Push(e);
  }
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.dropped(), 2);
  EXPECT_EQ(one.Snapshot()[0].a, 2);
}

// Records are copied into the ring as plain bytes; their tags are views.
static_assert(std::is_trivially_copyable_v<TraceRecord> &&
              std::is_trivially_destructible_v<TraceRecord>);

// Tags view names the Observer keeps, never the caller's strings: every name
// here is gone (and overwritten first) before the dump reads the records.
TEST(ObserverTest, TraceTagsOutliveTheirSources) {
  SimClock clock;
  Observer obs(&clock);
  {
    std::string device = "a-disk-name-longer-than-sso";
    std::string fs = "a-replicated-fs-longer-than-sso";
    obs.DeviceTransfer(device, /*write=*/false, 4096, 8192, Microseconds(5), true);
    obs.DeviceError(std::string("a-temporary-device-name"), /*write=*/true, Err::kIo);
    obs.IoRetry(3, 7, 1, Err::kIo);
    obs.ReplicaStale(fs, 2, 4096);
    obs.DeviceTransfer(device, /*write=*/true, 0, 512, Microseconds(1), false);
    device.assign(device.size(), '#');
    fs.assign(fs.size(), '#');
  }
  EXPECT_EQ(obs.trace().DumpCsv(),
            "seq,t_ns,kind,pid,level,file,a,b,dur_ns,tag\n"
            "0,0,device_read,0,-1,0,4096,8192,5000,a-disk-name-longer-than-sso\n"
            "1,0,device_error,0,1,0,0,0,0,a-temporary-device-name:EIO\n"
            "2,0,io_retry,3,-1,7,1,0,0,EIO\n"
            "3,0,replica_stale,0,2,0,0,4096,0,a-replicated-fs-longer-than-sso\n"
            "4,0,device_write,0,-1,0,0,512,1000,a-disk-name-longer-than-sso\n");
}

// ---- kernel-level integration ----

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(KernelConfig config = {}) {
  if (config.cache.capacity_pages == 0) {
    config.cache.capacity_pages = 64;
  }
  World w;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

// A fixed workload touching reads, writes, readahead, and eviction.
void RunWorkload(World& w) {
  SimKernel& k = *w.kernel;
  Process& p = *w.proc;
  const std::string data(48 * kPageSize, 'z');
  const int fd = k.Create(p, "/data").value();
  ASSERT_TRUE(k.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.Close(p, fd).ok());
  k.DropCaches();
  const int rfd = k.Open(p, "/data").value();
  char buf[8192];
  while (k.Read(p, rfd, std::span<char>(buf, sizeof(buf))).value() > 0) {
  }
  (void)k.IoctlSledsGet(p, rfd);
  ASSERT_TRUE(k.Close(p, rfd).ok());
}

TEST(ObserverKernelTest, HooksCoverSyscallsDevicesAndLevels) {
  World w = MakeWorld();
  RunWorkload(w);
  const MetricRegistry& m = w.kernel->obs().metrics();
  EXPECT_GT(m.counter("kernel.pageins"), 0);
  EXPECT_EQ(m.counter("kernel.pages_paged_in"), w.kernel->stats().pages_paged_in);
  EXPECT_GT(m.counter("kernel.readahead_batches"), 0);
  EXPECT_EQ(m.counter("kernel.readahead_pages"), w.kernel->stats().readahead_pages);
  EXPECT_GT(m.counter("dev.disk.reads"), 0);
  EXPECT_GT(m.counter("dev.disk.bytes_read"), 0);
  EXPECT_GT(m.counter("vfs.resolves"), 0);
  EXPECT_EQ(m.counter("kernel.sled_scans"), 1);
  // Level 1 is the mounted disk fs (level 0 = memory, which never pages in).
  EXPECT_GT(m.counter("level.1.disk.pageins"), 0);
  const LatencyHistogram* pagein = m.histogram("level.1.disk.pagein_time");
  ASSERT_NE(pagein, nullptr);
  EXPECT_GT(pagein->sum().nanos(), 0);
  const LatencyHistogram* read_lat = m.histogram("syscall.read");
  ASSERT_NE(read_lat, nullptr);
  EXPECT_GT(read_lat->count(), 0);
  EXPECT_LE(read_lat->Quantile(0.50), read_lat->Quantile(0.99));
  // The trace saw matching event kinds.
  bool saw_pagein = false;
  bool saw_device_read = false;
  bool saw_syscall_exit = false;
  for (const TraceRecord& e : w.kernel->obs().trace().Snapshot()) {
    saw_pagein |= e.kind == TraceKind::kPageIn;
    saw_device_read |= e.kind == TraceKind::kDeviceRead;
    saw_syscall_exit |= e.kind == TraceKind::kSyscallExit;
  }
  EXPECT_TRUE(saw_pagein);
  EXPECT_TRUE(saw_device_read);
  EXPECT_TRUE(saw_syscall_exit);
}

// The whole-file and the ranged FSLEDS_GET are one syscall: one histogram
// counts both call sites.
TEST(ObserverKernelTest, BothSledsGetCallSitesShareOneHistogram) {
  World w = MakeWorld();
  SimKernel& k = *w.kernel;
  const std::string data(8 * kPageSize, 'g');
  const int fd = k.Create(*w.proc, "/g").value();
  ASSERT_TRUE(k.Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.IoctlSledsGet(*w.proc, fd).ok());
  ASSERT_TRUE(k.IoctlSledsGet(*w.proc, fd, 0, kPageSize).ok());
  ASSERT_TRUE(k.IoctlSledsGet(*w.proc, fd, kPageSize, 2 * kPageSize).ok());
  const LatencyHistogram* h = k.obs().metrics().histogram("syscall.ioctl_sleds_get");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3);
  int exits = 0;
  for (const TraceRecord& e : k.obs().trace().Snapshot()) {
    exits += e.kind == TraceKind::kSyscallExit && e.tag == "ioctl_sleds_get";
  }
  EXPECT_EQ(exits, 3);
}

// A key exists once something was recorded under it, and not before: a
// kernel that only reads exports no write-side device key, and one that made
// no syscall exports no syscall or resolve key.
TEST(ObserverKernelTest, KeysAppearOnlyOnceRecorded) {
  World w = MakeWorld();
  SimKernel& k = *w.kernel;
  const std::string before = k.obs().MetricsJson();
  EXPECT_EQ(before.find("\"syscall."), std::string::npos);
  EXPECT_EQ(before.find("\"vfs.resolves\""), std::string::npos);
  // File contents placed below the kernel, so no syscall writes them.
  const Vfs::Resolved file = k.vfs().CreateFile("/r").value();
  const std::string data(16 * kPageSize, 'r');
  ASSERT_TRUE(file.fs->WriteBytes(file.ino, 0, std::span<const char>(data)).ok());
  const int fd = k.Open(*w.proc, "/r").value();
  char buf[8192];
  while (k.Read(*w.proc, fd, std::span<char>(buf, sizeof(buf))).value() > 0) {
  }
  ASSERT_TRUE(k.Close(*w.proc, fd).ok());
  const MetricRegistry& m = k.obs().metrics();
  EXPECT_GT(m.counter("dev.disk.reads"), 0);
  EXPECT_NE(m.histogram("dev.disk.read_time"), nullptr);
  const std::string json = k.obs().MetricsJson();
  for (const char* key : {"\"dev.disk.writes\"", "\"dev.disk.bytes_written\"",
                          "\"dev.disk.write_time\"", "\"syscall.write\"", "\"syscall.lseek\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
  for (const char* key : {"\"syscall.open\"", "\"syscall.read\"", "\"syscall.close\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(m.counter("vfs.resolves"), 1);
}

TEST(ObserverKernelTest, IdenticalRunsAreByteIdentical) {
  World a = MakeWorld();
  World b = MakeWorld();
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_EQ(a.kernel->clock().Now().since_epoch().nanos(),
            b.kernel->clock().Now().since_epoch().nanos());
  EXPECT_EQ(a.kernel->obs().MetricsJson(), b.kernel->obs().MetricsJson());
  EXPECT_EQ(a.kernel->obs().metrics().ToCsv(), b.kernel->obs().metrics().ToCsv());
  EXPECT_EQ(a.kernel->obs().trace().DumpCsv(), b.kernel->obs().trace().DumpCsv());
}

TEST(ObserverKernelTest, TracingAndExportCostZeroSimulatedTime) {
  // A tiny trace ring (constant overflow) and a huge one must produce the
  // same simulated timeline: instrumentation never advances the clock.
  KernelConfig small;
  small.trace_events = 8;
  World a = MakeWorld(small);
  World b = MakeWorld();
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_GT(a.kernel->obs().trace().dropped(), 0);
  EXPECT_EQ(a.kernel->obs().trace().dropped() + static_cast<int64_t>(8),
            b.kernel->obs().trace().total());
  EXPECT_EQ(a.kernel->clock().Now().since_epoch().nanos(),
            b.kernel->clock().Now().since_epoch().nanos());
  // Exporting is free too.
  const int64_t before = b.kernel->clock().Now().since_epoch().nanos();
  (void)b.kernel->obs().MetricsJson();
  (void)b.kernel->obs().trace().DumpCsv();
  (void)b.kernel->obs().metrics().ToCsv();
  EXPECT_EQ(b.kernel->clock().Now().since_epoch().nanos(), before);
}

TEST(ObserverKernelTest, WritebackHooksMatchKernelStats) {
  KernelConfig config;
  config.cache.capacity_pages = 16;
  config.writeback_batch_pages = 8;
  config.io.mode = IoMode::kFifoSync;  // asserts the synchronous bdflush model
  World w = MakeWorld(config);
  const std::string data(64 * kPageSize, 'w');
  const int fd = w.kernel->Create(*w.proc, "/out").value();
  ASSERT_TRUE(
      w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  (void)w.kernel->FlushAllDirty();
  const MetricRegistry& m = w.kernel->obs().metrics();
  EXPECT_GT(m.counter("kernel.writeback_flushes"), 0);
  EXPECT_GT(m.counter("kernel.writeback_queued"), 0);
  EXPECT_EQ(m.counter("kernel.writeback_pages"), m.counter("kernel.writeback_queued"));
  const LatencyHistogram* flush = m.histogram("writeback.flush_time");
  ASSERT_NE(flush, nullptr);
  EXPECT_EQ(flush->count(), m.counter("kernel.writeback_flushes"));
  EXPECT_GT(m.counter("dev.disk.writes"), 0);
  EXPECT_GT(m.counter("dev.disk.bytes_written"), 0);
}

}  // namespace
}  // namespace sled
