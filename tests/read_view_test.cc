// ReadView against Read. Twin kernels, built alike, run one seeded op script:
// one side reads through Read (a copy into a buffer), the other through
// ReadView (a view of the store). They must agree in every byte returned and
// in every simulated number: the clock, each process's cpu/io split and
// counters, the kernel's stats, the metrics export and the event trace. The
// twins cover every file-system kind, all three I/O modes and a transient
// fault plan. Since Read is ReadView plus a copy, a charge ReadView drops
// would drop from both twins alike; ReadViewTest.ChargesEachPagesCopy pins
// the charge from the cost model instead.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/device/fault.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/replica/replicated_fs.h"
#include "src/workload/testbed.h"

namespace sled {
namespace {

enum class Kind { kDisk, kNfs, kSsd, kReplicated, kHsm, kCdRom };

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kDisk:
      return "disk";
    case Kind::kNfs:
      return "nfs";
    case Kind::kSsd:
      return "ssd";
    case Kind::kReplicated:
      return "replicated";
    case Kind::kHsm:
      return "hsm";
    case Kind::kCdRom:
      return "cdrom";
  }
  return "?";
}

std::string ModeName(IoMode mode) {
  switch (mode) {
    case IoMode::kFifoSync:
      return "fifo_sync";
    case IoMode::kFifoAsync:
      return "fifo_async";
    case IoMode::kElevator:
      return "elevator";
    case IoMode::kFromEnv:
      return "from_env";
  }
  return "?";
}

std::shared_ptr<FaultPlan> TransientPlan(uint64_t seed) {
  FaultPlanConfig fc;
  fc.seed = seed;
  fc.read_fault_prob = 0.3;  // with the kernel's 2 retries, ~3% escape
  fc.write_fault_prob = 0.1;
  return std::make_shared<FaultPlan>(fc);
}

struct World {
  Testbed tb;
  std::string dir;
  std::vector<Process*> procs;
  std::vector<StorageDevice*> devices;  // the data mount's devices
};

// A machine whose data files live in `dir` on a file system of `kind`, with
// a 48-page cache so reads evict and page in.
World MakeWorld(Kind kind, IoMode mode, bool faults) {
  TestbedConfig tc;
  tc.cache_pages = 48;
  tc.io.mode = mode;
  tc.seed = 5;
  switch (kind) {
    case Kind::kNfs:
      tc.kind = StorageKind::kNfs;
      break;
    case Kind::kHsm:
      tc.kind = StorageKind::kHsm;
      break;
    case Kind::kCdRom:
      tc.kind = StorageKind::kCdRom;
      break;
    default:
      tc.kind = StorageKind::kDisk;
      break;
  }
  World w;
  w.tb = MakeTestbed(tc);
  w.dir = "/data";
  SimKernel& k = *w.tb.kernel;
  if (kind == Kind::kSsd) {
    SsdDeviceConfig sc;
    sc.capacity_bytes = 64LL * 1024 * 1024;
    auto ssd = std::make_unique<SsdDevice>(sc);
    w.devices.push_back(ssd.get());
    EXPECT_TRUE(k.Mount("/flash", std::make_unique<ExtFs>("flash", std::move(ssd))).ok());
    w.dir = "/flash";
  } else if (kind == Kind::kReplicated) {
    std::vector<std::unique_ptr<StorageDevice>> devices;
    for (int i = 0; i < 3; ++i) {
      DiskDeviceConfig dc;
      dc.seed = 100 + static_cast<uint64_t>(i);
      devices.push_back(std::make_unique<DiskDevice>(dc, "rdisk" + std::to_string(i)));
      w.devices.push_back(devices.back().get());
    }
    ReplicatedFsConfig rc;
    rc.stripe_pages = 8;
    rc.replication_factor = 2;
    EXPECT_TRUE(
        k.Mount("/repl", std::make_unique<ReplicatedFs>("repl", std::move(devices), rc)).ok());
    w.dir = "/repl";
  } else {
    w.devices.push_back(k.vfs().FsById(w.tb.data_fs_id)->PrimaryDevice());
  }
  if (faults) {
    for (size_t i = 0; i < w.devices.size(); ++i) {
      w.devices[i]->InjectFaults(TransientPlan(7 + i));
    }
  }
  w.procs.push_back(&k.CreateProcess("reader"));
  w.procs.push_back(&k.CreateProcess("other"));
  return w;
}

std::string Bytes(Rng& rng, int64_t n) {
  std::string s(static_cast<size_t>(n), '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.Uniform(0, 255));
  }
  return s;
}

// One op's outcome, as text both twins can be compared by.
std::string Outcome(const Result<std::string>& r) {
  if (!r.ok()) {
    return "err " + std::string(ErrName(r.error()));
  }
  uint64_t h = 1469598103934665603ULL;
  for (char c : r.value()) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return "ok " + std::to_string(r.value().size()) + " " + std::to_string(h);
}

// read() of `length` bytes at the descriptor's offset, through the twin's
// path.
Result<std::string> ReadThrough(SimKernel& k, Process& p, int fd, int64_t length, bool view) {
  if (view) {
    SLED_ASSIGN_OR_RETURN(std::string_view v, k.ReadView(p, fd, length));
    return std::string(v);
  }
  std::string buf(static_cast<size_t>(length), '\0');
  SLED_ASSIGN_OR_RETURN(int64_t n, k.Read(p, fd, std::span<char>(buf.data(), buf.size())));
  buf.resize(static_cast<size_t>(n));
  return buf;
}

// The op script: three files (one larger than the cache) written, mastered
// on CD-ROM, then 400 seeded ops by two processes. Returns the outcome log.
std::vector<std::string> RunScript(World& w, bool view) {
  SimKernel& k = *w.tb.kernel;
  Rng rng(2024);
  std::vector<std::string> log;
  const std::vector<int64_t> sizes = {150 * 1024 + 17, 37 * 1024 + 123, 300 * 1024};
  std::vector<std::string> paths;
  for (size_t f = 0; f < sizes.size(); ++f) {
    paths.push_back(w.dir + "/f" + std::to_string(f));
    auto fd = k.Create(*w.procs[0], paths.back());
    EXPECT_TRUE(fd.ok());
    const std::string data = Bytes(rng, sizes[f]);
    log.push_back("write " + std::to_string(k.Write(*w.procs[0], fd.value(), data).ok()));
    EXPECT_TRUE(k.Close(*w.procs[0], fd.value()).ok());
  }
  w.tb.FinishMastering();
  k.DropCaches();
  // fds[p][f]: process p's descriptor on file f.
  std::vector<std::vector<int>> fds(w.procs.size());
  for (size_t p = 0; p < w.procs.size(); ++p) {
    for (const std::string& path : paths) {
      auto fd = k.Open(*w.procs[p], path);
      EXPECT_TRUE(fd.ok());
      fds[p].push_back(fd.value());
    }
  }
  const std::vector<int64_t> lengths = {1, 100, 4095, 4096, 4097, 10000, 65536, 200000};
  for (int op = 0; op < 400; ++op) {
    const size_t p = static_cast<size_t>(rng.Uniform(0, 1));
    const size_t f = static_cast<size_t>(rng.Uniform(0, 2));
    Process& proc = *w.procs[p];
    const int fd = fds[p][f];
    const int64_t length = lengths[static_cast<size_t>(rng.Uniform(0, 7))];
    const int roll = static_cast<int>(rng.Uniform(0, 99));
    std::string entry = std::to_string(op) + " ";
    if (roll < 40) {
      entry += "read " + Outcome(ReadThrough(k, proc, fd, length, view));
    } else if (roll < 55) {
      const int64_t to = rng.Uniform(0, sizes[f] + 8192);
      entry += "seek " + std::to_string(k.Lseek(proc, fd, to, Whence::kSet).ok());
      entry += " read " + Outcome(ReadThrough(k, proc, fd, length, view));
    } else if (roll < 62) {
      entry += "eof " + std::to_string(k.Lseek(proc, fd, 0, Whence::kEnd).ok());
      entry += " read " + Outcome(ReadThrough(k, proc, fd, length, view));
    } else if (roll < 67) {
      entry += "zero " + Outcome(ReadThrough(k, proc, fd, 0, view));
    } else if (roll < 77) {
      const int64_t at = rng.Uniform(0, sizes[f]);
      auto m = k.MmapRead(proc, fd, at, length);
      entry += "mmap " + Outcome(m.ok() ? Result<std::string>(std::string(m.value()))
                                        : Result<std::string>(m.error()));
    } else if (roll < 87) {
      // Overwrites and appends move the file's size; CD-ROM refuses them.
      const std::string data = Bytes(rng, rng.Uniform(1, 9000));
      auto wr = k.Write(proc, fd, data);
      entry += "write " + (wr.ok() ? std::to_string(wr.value()) : std::string(ErrName(wr.error())));
    } else if (roll < 92) {
      entry += "badfd " + Outcome(ReadThrough(k, proc, 99, length, view));
    } else if (roll < 96) {
      entry += "flush " + std::to_string(k.FlushAllDirty().nanos());
    } else {
      k.DropCaches();
      entry += "drop";
    }
    log.push_back(entry);
  }
  for (size_t p = 0; p < w.procs.size(); ++p) {
    for (int fd : fds[p]) {
      EXPECT_TRUE(k.Close(*w.procs[p], fd).ok());
    }
  }
  // A directory never gets a descriptor, so neither read path sees one.
  log.push_back("opendir " + std::string(ErrName(k.Open(*w.procs[0], w.dir).error())));
  return log;
}

void ExpectSameState(World& a, World& b) {
  SimKernel& ka = *a.tb.kernel;
  SimKernel& kb = *b.tb.kernel;
  EXPECT_EQ(ka.clock().Now(), kb.clock().Now());
  for (size_t p = 0; p < a.procs.size(); ++p) {
    const ProcessStats& x = a.procs[p]->stats();
    const ProcessStats& y = b.procs[p]->stats();
    EXPECT_EQ(x.elapsed(), y.elapsed());
    EXPECT_EQ(x.cpu_time, y.cpu_time);
    EXPECT_EQ(x.io_time, y.io_time);
    EXPECT_EQ(x.syscalls, y.syscalls);
    EXPECT_EQ(x.minor_faults, y.minor_faults);
    EXPECT_EQ(x.major_faults, y.major_faults);
    EXPECT_EQ(x.bytes_read, y.bytes_read);
    EXPECT_EQ(x.bytes_written, y.bytes_written);
    EXPECT_EQ(x.io_waits, y.io_waits);
  }
  const KernelStats& x = ka.stats();
  const KernelStats& y = kb.stats();
  EXPECT_EQ(x.pages_paged_in, y.pages_paged_in);
  EXPECT_EQ(x.pages_written_back, y.pages_written_back);
  EXPECT_EQ(x.readahead_pages, y.readahead_pages);
  EXPECT_EQ(x.io_errors, y.io_errors);
  EXPECT_EQ(x.io_retries, y.io_retries);
  EXPECT_EQ(x.writeback_retries, y.writeback_retries);
  EXPECT_EQ(x.writeback_lost, y.writeback_lost);
  EXPECT_EQ(x.background_io_time, y.background_io_time);
  EXPECT_EQ(ka.obs().MetricsJson(), kb.obs().MetricsJson());
  EXPECT_EQ(ka.obs().trace().DumpCsv(), kb.obs().trace().DumpCsv());
}

std::string TwinName(const ::testing::TestParamInfo<std::tuple<Kind, IoMode, bool>>& param) {
  const auto& [kind, mode, faults] = param.param;
  return KindName(kind) + "_" + ModeName(mode) + (faults ? "_faults" : "");
}

class ReadViewTwinTest : public ::testing::TestWithParam<std::tuple<Kind, IoMode, bool>> {};

TEST_P(ReadViewTwinTest, MatchesReadInBytesAndSimulatedTime) {
  const auto [kind, mode, faults] = GetParam();
  World copy = MakeWorld(kind, mode, faults);
  World view = MakeWorld(kind, mode, faults);
  const std::vector<std::string> copy_log = RunScript(copy, /*view=*/false);
  const std::vector<std::string> view_log = RunScript(view, /*view=*/true);
  ASSERT_EQ(copy_log.size(), view_log.size());
  for (size_t i = 0; i < copy_log.size(); ++i) {
    ASSERT_EQ(copy_log[i], view_log[i]) << "op log entry " << i;
  }
  ExpectSameState(copy, view);
  EXPECT_GT(copy.procs[0]->stats().bytes_read, 0);
  if (faults) {
    EXPECT_GT(copy.tb.kernel->stats().io_errors, 0);  // errors reach the syscalls
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsModesFaults, ReadViewTwinTest,
    ::testing::Combine(::testing::Values(Kind::kDisk, Kind::kNfs, Kind::kSsd,
                                         Kind::kReplicated, Kind::kHsm, Kind::kCdRom),
                       ::testing::Values(IoMode::kFifoSync, IoMode::kFifoAsync,
                                         IoMode::kElevator),
                       ::testing::Bool()),
    TwinName);

// A small file on the disk testbed, open for reading by one process.
struct Small {
  World w = MakeWorld(Kind::kDisk, IoMode::kFifoSync, false);
  SimKernel& k = *w.tb.kernel;
  Process& p = *w.procs[0];
  std::string content;
  int fd = -1;

  explicit Small(int64_t size) {
    Rng rng(3);
    content = Bytes(rng, size);
    const int wfd = k.Create(p, "/data/s").value();
    EXPECT_TRUE(k.Write(p, wfd, content).ok());
    EXPECT_TRUE(k.Close(p, wfd).ok());
    fd = k.Open(p, "/data/s").value();
  }
};

TEST(ReadViewTest, EdgeCases) {
  Small s(10000);
  // Zero length: an empty view, and nothing moves but the syscall count.
  const ProcessStats before = s.p.stats();
  auto zero = s.k.ReadView(s.p, s.fd, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  EXPECT_EQ(s.p.stats().syscalls, before.syscalls + 1);
  EXPECT_EQ(s.p.stats().bytes_read, before.bytes_read);
  EXPECT_EQ(s.k.Lseek(s.p, s.fd, 0, Whence::kCur).value(), 0);
  // A negative length is kInval and leaves the offset where it was.
  ASSERT_TRUE(s.k.Lseek(s.p, s.fd, 100, Whence::kSet).ok());
  EXPECT_EQ(s.k.ReadView(s.p, s.fd, -1).error(), Err::kInval);
  EXPECT_EQ(s.k.Lseek(s.p, s.fd, 0, Whence::kCur).value(), 100);
  // A read is clamped at EOF, and the next one returns an empty view.
  ASSERT_TRUE(s.k.Lseek(s.p, s.fd, 9000, Whence::kSet).ok());
  auto tail = s.k.ReadView(s.p, s.fd, 5000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(std::string(*tail), s.content.substr(9000));
  auto at_eof = s.k.ReadView(s.p, s.fd, 5000);
  ASSERT_TRUE(at_eof.ok());
  EXPECT_TRUE(at_eof->empty());
  // Past EOF as well.
  ASSERT_TRUE(s.k.Lseek(s.p, s.fd, 20000, Whence::kSet).ok());
  EXPECT_TRUE(s.k.ReadView(s.p, s.fd, 10).value().empty());
  EXPECT_EQ(s.k.ReadView(s.p, 99, 10).error(), Err::kBadF);
  EXPECT_EQ(s.k.Open(s.p, "/data").error(), Err::kIsDir);
}

TEST(ReadViewTest, ViewsTheStoreAndMovesTheOffset) {
  Small s(3 * kPageSize);
  auto first = s.k.ReadView(s.p, s.fd, 5000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(std::string(*first), s.content.substr(0, 5000));
  auto second = s.k.ReadView(s.p, s.fd, 5000);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(std::string(*second), s.content.substr(5000, 5000));
  // Both are windows of the file's one copy in the store, as MmapRead's are.
  EXPECT_EQ(first->data() + 5000, second->data());
  EXPECT_EQ(s.k.MmapRead(s.p, s.fd, 0, 1).value().data(), first->data());
  EXPECT_EQ(s.p.stats().bytes_read, 10001);
}

// The charge, from the cost model: the syscall's entry, plus per page the
// memory latency and the transfer of the bytes read in that page.
TEST(ReadViewTest, ChargesEachPagesCopy) {
  Small s(4 * kPageSize);
  // Warm every page so the read is all hits: CPU only, no device time.
  ASSERT_TRUE(s.k.MmapRead(s.p, s.fd, 0, 4 * kPageSize).ok());
  const KernelConfig& config = s.k.config();
  const Duration latency = SecondsF(config.memory.latency.ToSeconds());
  const double bw = config.memory.bandwidth_bps;
  // Bytes [100, 2 * kPageSize + 50): 3996, 4096 and 50 bytes of three pages.
  const Duration expected = config.costs.syscall_overhead + latency * 3 +
                            TransferTime(kPageSize - 100, bw) + TransferTime(kPageSize, bw) +
                            TransferTime(50, bw);
  for (bool view : {false, true}) {
    ASSERT_TRUE(s.k.Lseek(s.p, s.fd, 100, Whence::kSet).ok());
    const Duration cpu = s.p.stats().cpu_time;
    const Duration io = s.p.stats().io_time;
    auto got = ReadThrough(s.k, s.p, s.fd, 2 * kPageSize - 50, view);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), s.content.substr(100, 2 * kPageSize - 50));
    EXPECT_EQ(s.p.stats().cpu_time - cpu, expected) << (view ? "ReadView" : "Read");
    EXPECT_EQ(s.p.stats().io_time, io);
  }
}

// Write from a view of the file being written, growing it: the view may
// move when the file grows, so WriteBytes must take its bytes first.
TEST(ReadViewTest, WriteFromOwnViewGrowsTheFile) {
  Small s(3 * kPageSize + 11);
  std::string oracle = s.content;
  const int wfd = s.k.Open(s.p, "/data/s").value();
  // Append the whole file to itself through a ReadView of it.
  auto all = s.k.ReadView(s.p, s.fd, 1 << 20);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(s.k.Lseek(s.p, wfd, 0, Whence::kEnd).ok());
  ASSERT_EQ(s.k.Write(s.p, wfd, *all).value(), static_cast<int64_t>(oracle.size()));
  oracle += oracle;
  // Through MmapRead, a write that overlaps its own source and straddles EOF.
  auto mapped = s.k.MmapRead(s.p, s.fd, 100, 2 * kPageSize);
  ASSERT_TRUE(mapped.ok());
  const int64_t at = static_cast<int64_t>(oracle.size()) - kPageSize;
  ASSERT_TRUE(s.k.Lseek(s.p, wfd, at, Whence::kSet).ok());
  const std::string source = oracle.substr(100, 2 * kPageSize);
  ASSERT_EQ(s.k.Write(s.p, wfd, *mapped).value(), 2 * kPageSize);
  oracle.resize(static_cast<size_t>(at));
  oracle += source;
  ASSERT_TRUE(s.k.Lseek(s.p, s.fd, 0, Whence::kSet).ok());
  EXPECT_EQ(std::string(s.k.ReadView(s.p, s.fd, 1 << 20).value()), oracle);
}

}  // namespace
}  // namespace sled
