// Tests for the workload module: testbeds, generators, calibration, and the
// experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/apps/wc.h"
#include "src/fits/fits.h"
#include "src/workload/calibrate.h"
#include "src/workload/experiment.h"
#include "src/workload/fits_gen.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

// Calibration asserts measured service times against device nominals; pin the
// synchronous I/O path so async readahead overlap (when $SLEDS_IO_MODE selects
// an engine mode) cannot skew the probes.
Testbed MakeSyncTestbed(StorageKind kind, uint64_t seed) {
  TestbedConfig config;
  config.kind = kind;
  config.seed = seed;
  config.io.mode = IoMode::kFifoSync;
  return MakeTestbed(config);
}

TEST(TestbedTest, UnixTestbedsMountDataFs) {
  for (StorageKind kind : {StorageKind::kDisk, StorageKind::kCdRom, StorageKind::kNfs}) {
    Testbed tb = MakeUnixTestbed(kind, 1);
    ASSERT_NE(tb.kernel, nullptr);
    EXPECT_EQ(tb.kernel->vfs().MountPathOf(tb.data_fs_id), "/data");
    FileSystem* fs = tb.kernel->vfs().FsById(tb.data_fs_id);
    ASSERT_NE(fs, nullptr);
    EXPECT_EQ(fs->name(), StorageKindName(kind));
    // Cache sized to ~40 MiB.
    EXPECT_EQ(tb.kernel->cache().capacity_pages(), 10240);
  }
}

TEST(TestbedTest, SledsTableHasMemoryPlusLevels) {
  Testbed tb = MakeUnixTestbed(StorageKind::kNfs, 2);
  const SledsTable& table = tb.kernel->sleds_table();
  // memory + sys-disk + nfs.
  ASSERT_EQ(table.size(), 3);
  EXPECT_EQ(table.row(0).name, "memory");
  EXPECT_NEAR(table.row(0).chars.latency.ToMicros(), 0.175, 0.01);
  EXPECT_EQ(table.row(2).name, "nfs");
  EXPECT_NEAR(table.row(2).chars.latency.ToMillis(), 270.0, 1.0);
}

TEST(TestbedTest, LheasoftTestbedMatchesTable3) {
  Testbed tb = MakeLheasoftTestbed(3);
  const SledsTable& table = tb.kernel->sleds_table();
  // memory 210 ns / 87 MB/s; data disk ~16.5 ms / ~7.0 MB/s.
  EXPECT_EQ(table.row(0).chars.latency.nanos(), 210);
  EXPECT_NEAR(table.row(0).chars.bandwidth_bps / 1e6, 87.0, 0.1);
  const SledsTable::Row& disk = table.row(2);
  EXPECT_EQ(disk.name, "disk");
  EXPECT_NEAR(disk.chars.latency.ToMillis(), 16.5, 1.0);
  EXPECT_NEAR(disk.chars.bandwidth_bps / 1e6, 7.0, 0.2);
}

TEST(TestbedTest, HsmTestbedExposesThreeDataLevels) {
  Testbed tb = MakeHsmTestbed(4);
  FileSystem* fs = tb.kernel->vfs().FsById(tb.data_fs_id);
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->Levels().size(), 3u);
  // memory + sys-disk + 3 HSM levels.
  EXPECT_EQ(tb.kernel->sleds_table().size(), 5);
}

TEST(TestbedTest, CdromMasteringSealsAfterWrite) {
  Testbed tb = MakeUnixTestbed(StorageKind::kCdRom, 5);
  Process& p = tb.kernel->CreateProcess("master");
  Rng rng(5);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/data/disc.txt", MiB(1), rng).ok());
  tb.FinishMastering();
  EXPECT_EQ(tb.kernel->Create(p, "/data/new.txt").error(), Err::kRofs);
  // Reads still fine.
  EXPECT_TRUE(tb.kernel->Open(p, "/data/disc.txt").ok());
}

TEST(TextGenTest, GeneratesExactSizeAndLines) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 6);
  Process& p = tb.kernel->CreateProcess("gen");
  Rng rng(6);
  const int64_t lines = GenerateTextFile(*tb.kernel, p, "/data/t.txt", MiB(2), rng).value();
  EXPECT_EQ(tb.kernel->Stat(p, "/data/t.txt").value().size, MiB(2));
  EXPECT_GT(lines, MiB(2) / kGenLineLen - 2);

  // Content is newline-structured lowercase text.
  const int fd = tb.kernel->Open(p, "/data/t.txt").value();
  std::string head(256, '\0');
  ASSERT_TRUE(tb.kernel->Read(p, fd, std::span<char>(head.data(), head.size())).ok());
  EXPECT_EQ(head[kGenLineLen - 1], '\n');
  ASSERT_TRUE(tb.kernel->Close(p, fd).ok());
}

TEST(TextGenTest, MarkerPlacementAndRemoval) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 7);
  Process& p = tb.kernel->CreateProcess("gen");
  Rng rng(7);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/data/t.txt", MiB(1), rng).ok());
  const int64_t size_before = tb.kernel->Stat(p, "/data/t.txt").value().size;

  const int64_t where = PlaceMarker(*tb.kernel, p, "/data/t.txt", MiB(1) / 2).value();
  EXPECT_EQ(where % kGenLineLen, 0);
  EXPECT_EQ(tb.kernel->Stat(p, "/data/t.txt").value().size, size_before);

  // The marker is present exactly once.
  const int fd = tb.kernel->Open(p, "/data/t.txt").value();
  std::string all(static_cast<size_t>(size_before), '\0');
  int64_t got = 0;
  while (got < size_before) {
    const int64_t n =
        tb.kernel->Read(p, fd, std::span<char>(all.data() + got, all.size() - got)).value();
    if (n == 0) break;
    got += n;
  }
  ASSERT_TRUE(tb.kernel->Close(p, fd).ok());
  size_t count = 0;
  for (size_t pos = all.find(kGrepMarker); pos != std::string::npos;
       pos = all.find(kGrepMarker, pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(all.substr(static_cast<size_t>(where) + 4, kGrepMarker.size()), kGrepMarker);

  ASSERT_TRUE(RemoveMarker(*tb.kernel, p, "/data/t.txt", where, rng).ok());
  EXPECT_EQ(tb.kernel->Stat(p, "/data/t.txt").value().size, size_before);
}

TEST(TextGenTest, LineCountIncludesRaggedTail) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 4);
  Process& p = tb.kernel->CreateProcess("gen");
  Rng rng(4);
  for (int64_t bytes : {int64_t{1}, int64_t{63}, int64_t{65}, int64_t{100}}) {
    SCOPED_TRACE(bytes);
    const std::string path = "/data/t" + std::to_string(bytes) + ".txt";
    const int64_t lines = GenerateTextFile(*tb.kernel, p, path, bytes, rng).value();
    EXPECT_EQ(lines, WcApp::Run(*tb.kernel, p, path, WcOptions{}).value().lines);
  }
}

std::string ReadWholeFile(SimKernel& kernel, Process& p, std::string_view path) {
  const int fd = kernel.Open(p, path).value();
  std::string all(static_cast<size_t>(kernel.Fstat(p, fd).value().size), '\0');
  size_t got = 0;
  while (got < all.size()) {
    const int64_t n =
        kernel.Read(p, fd, std::span<char>(all.data() + got, all.size() - got)).value();
    if (n == 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  EXPECT_TRUE(kernel.Close(p, fd).ok());
  all.resize(got);
  return all;
}

// The text generator's first form, kept as its oracle: one push_back and one
// draw per character, on std::mt19937_64.
void OracleAppendLine(std::string* out, std::mt19937_64& engine) {
  auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
  };
  const size_t end = out->size() + kGenLineLen - 1;
  while (out->size() < end) {
    const int64_t word = std::min<int64_t>(uniform(2, 9), static_cast<int64_t>(end - out->size()));
    for (int64_t i = 0; i < word; ++i) {
      out->push_back(static_cast<char>('a' + uniform(0, 25)));
    }
    if (out->size() < end) {
      out->push_back(' ');
    }
  }
  out->push_back('\n');
}

std::string OracleText(int64_t bytes, std::mt19937_64& engine) {
  std::string out;
  while (static_cast<int64_t>(out.size()) + kGenLineLen <= bytes) {
    OracleAppendLine(&out, engine);
  }
  if (static_cast<int64_t>(out.size()) < bytes) {
    out.append(static_cast<size_t>(bytes) - out.size() - 1, 'z');
    out.push_back('\n');
  }
  return out;
}

TEST(TextGenTest, BytesAndRngPositionMatchOracle) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (int64_t bytes : {int64_t{64}, int64_t{100}, 256 * kKiB, 256 * kKiB + 64, kMiB + 17}) {
    SCOPED_TRACE(bytes);
    Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 11);
    Process& p = tb.kernel->CreateProcess("gen");
    Rng rng(11);
    std::mt19937_64 oracle(11);
    ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/data/t.txt", bytes, rng).ok());
    EXPECT_EQ(ReadWholeFile(*tb.kernel, p, "/data/t.txt"), OracleText(bytes, oracle));
    EXPECT_EQ(rng.Uniform(kMin, kMax), std::uniform_int_distribution<int64_t>(kMin, kMax)(oracle));
  }
}

TEST(TextGenTest, WritesWholeLineChunksThenTail) {
  // Create + one 256 KiB write per chunk of whole lines + the tail + close.
  for (int64_t bytes : {256 * kKiB, 256 * kKiB + 64, kMiB + 17}) {
    SCOPED_TRACE(bytes);
    Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 12);
    Process& p = tb.kernel->CreateProcess("gen");
    Rng rng(12);
    ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/data/t.txt", bytes, rng).ok());
    const int64_t whole = bytes / kGenLineLen * kGenLineLen;
    const int64_t writes = (whole + 256 * kKiB - 1) / (256 * kKiB) + (bytes != whole ? 1 : 0);
    EXPECT_EQ(p.stats().syscalls, writes + 2);
  }
}

// The FITS generator's first form, kept as its oracle: the whole image in
// memory, then one FitsWriteImage.
FitsImage OracleFitsImage(const FitsHeader& header, Rng& rng) {
  const int64_t side = header.naxis[0];
  FitsImage image;
  image.header = header;
  image.pixels.resize(static_cast<size_t>(side * side));
  for (int64_t y = 0; y < side; ++y) {
    for (int64_t x = 0; x < side; ++x) {
      const double gradient = 100.0 * (static_cast<double>(x + y) / static_cast<double>(2 * side));
      const double noise = rng.Normal(0.0, 5.0);
      image.pixels[static_cast<size_t>(y * side + x)] = gradient + noise;
    }
  }
  return image;
}

TEST(FitsGenTest, StreamedImageMatchesMaterialisedWrite) {
  struct Case {
    int bitpix;
    int64_t approx_bytes;
  };
  // The ~300 KB images end in a partial 64 KiB chunk at every BITPIX; the
  // 1 MiB float image is exactly 16 chunks.
  for (const Case& c : {Case{8, 300000}, Case{16, 300000}, Case{-32, 300000},
                        Case{-64, 300000}, Case{-32, kMiB}}) {
    SCOPED_TRACE(c.bitpix);
    SCOPED_TRACE(c.approx_bytes);
    Testbed streamed = MakeLheasoftTestbed(13);
    Process& gen = streamed.kernel->CreateProcess("gen");
    Rng rng(13);
    const FitsHeader header =
        GenerateFitsImage(*streamed.kernel, gen, "/data/i.fits", c.approx_bytes, c.bitpix, rng)
            .value();
    const ProcessStats gen_stats = gen.stats();

    Testbed materialised = MakeLheasoftTestbed(13);
    Process& oracle_gen = materialised.kernel->CreateProcess("gen");
    Rng oracle_rng(13);
    const FitsImage image = OracleFitsImage(header, oracle_rng);
    ASSERT_TRUE(FitsWriteImage(*materialised.kernel, oracle_gen, "/data/i.fits", image).ok());

    EXPECT_EQ(header.data_offset, static_cast<int64_t>(FitsEncodeHeader(header).size()));
    EXPECT_EQ(c.approx_bytes == kMiB, header.data_bytes() % (64 * kKiB) == 0);
    // Create, header, one write per 64 KiB chunk, the padding, close.
    const int64_t chunks = (header.data_bytes() + 64 * kKiB - 1) / (64 * kKiB);
    const int64_t pad_writes = header.padded_data_bytes() > header.data_bytes() ? 1 : 0;
    EXPECT_EQ(gen_stats.syscalls, 3 + chunks + pad_writes);
    EXPECT_EQ(gen_stats.syscalls, oracle_gen.stats().syscalls);
    EXPECT_EQ(gen_stats.elapsed(), oracle_gen.stats().elapsed());
    EXPECT_EQ(ReadWholeFile(*streamed.kernel, gen, "/data/i.fits"),
              ReadWholeFile(*materialised.kernel, oracle_gen, "/data/i.fits"));
    EXPECT_EQ(rng.Uniform(0, 1 << 30), oracle_rng.Uniform(0, 1 << 30));
  }
}

TEST(CalibrateTest, MeasuresCloseToDeviceNominals) {
  Testbed tb = MakeSyncTestbed(StorageKind::kNfs, 8);
  Process& p = tb.kernel->CreateProcess("boot");
  const auto rows = CalibrateSledsTable(*tb.kernel, p).value();
  ASSERT_FALSE(rows.empty());
  // The NFS level must have been measured near Table 2 (270 ms / 1.0 MB/s).
  bool found_nfs = false;
  bool found_memory = false;
  for (const CalibrationRow& row : rows) {
    if (row.name == "nfs") {
      found_nfs = true;
      EXPECT_TRUE(row.filled);
      EXPECT_NEAR(row.measured.latency.ToMillis(), 270.0, 80.0);
      EXPECT_NEAR(row.measured.bandwidth_bps / 1e6, 1.0, 0.3);
    }
    if (row.level == kMemoryLevel) {
      found_memory = true;
      EXPECT_LT(row.measured.latency.ToMillis(), 1.0);
      EXPECT_GT(row.measured.bandwidth_bps / 1e6, 5.0);
    }
  }
  EXPECT_TRUE(found_nfs);
  EXPECT_TRUE(found_memory);
  // The scratch file is cleaned up.
  EXPECT_EQ(tb.kernel->Stat(p, "/data/.sleds_calib").error(), Err::kNoEnt);
}

TEST(ExperimentTest, MeasureRunIsolatesProcessStats) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 9);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(9);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/t.txt", MiB(4), rng).ok());
  tb.kernel->DropCaches();
  const RunStats cold = MeasureRun(*tb.kernel, [](SimKernel& k, Process& p) {
    ASSERT_TRUE(WcApp::Run(k, p, "/data/t.txt", WcOptions{}).ok());
  });
  EXPECT_GT(cold.major_faults, 900);
  EXPECT_GT(cold.elapsed.ToSeconds(), 0.1);
  const RunStats warm = MeasureRun(*tb.kernel, [](SimKernel& k, Process& p) {
    ASSERT_TRUE(WcApp::Run(k, p, "/data/t.txt", WcOptions{}).ok());
  });
  EXPECT_EQ(warm.major_faults, 0);
  EXPECT_LT(warm.elapsed, cold.elapsed);
}

TEST(ExperimentTest, WarmCacheSeriesProducesTwelveSamples) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 10);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng gen_rng(10);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/t.txt", MiB(2), gen_rng).ok());
  tb.kernel->DropCaches();
  Rng rng(11);
  const MeasuredPoint point = RunWarmCacheSeries(
      tb, kPaperRepeats, rng, nullptr, [](SimKernel& k, Process& p) {
        ASSERT_TRUE(WcApp::Run(k, p, "/data/t.txt", WcOptions{}).ok());
      });
  EXPECT_EQ(point.seconds.n, 12u);
  EXPECT_GT(point.seconds.mean, 0.0);
  // Warm cache, file fits: no faults in any measured run.
  EXPECT_EQ(point.faults.mean, 0.0);
}

TEST(ExperimentTest, PaperSweepsMatchFigures) {
  const auto unix_sizes = PaperUnixSizes();
  ASSERT_EQ(unix_sizes.size(), 16u);
  EXPECT_EQ(unix_sizes.front(), MiB(8));
  EXPECT_EQ(unix_sizes.back(), MiB(128));
  const auto astro_sizes = PaperLheasoftSizes();
  ASSERT_EQ(astro_sizes.size(), 8u);
  EXPECT_EQ(astro_sizes.back(), MiB(64));
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(CalibrateTest, DiskMachineMeasuresShortStrokeSeeks) {
  Testbed tb = MakeSyncTestbed(StorageKind::kDisk, 61);
  Process& boot = tb.kernel->CreateProcess("boot");
  const auto rows = CalibrateSledsTable(*tb.kernel, boot).value();
  for (const CalibrationRow& row : rows) {
    if (row.name == "disk") {
      EXPECT_TRUE(row.filled);
      // Within-file probes are short-stroke: measured latency is below the
      // full-stroke 18 ms nominal but clearly above zero.
      EXPECT_GT(row.measured.latency.ToMillis(), 2.0);
      EXPECT_LT(row.measured.latency.ToMillis(), 18.0);
      EXPECT_NEAR(row.measured.bandwidth_bps / 1e6, 9.0, 1.5);
    }
  }
}

TEST(CalibrateTest, SealedCdromUsesExistingFile) {
  Testbed tb = MakeSyncTestbed(StorageKind::kCdRom, 62);
  Process& gen = tb.kernel->CreateProcess("master");
  Rng rng(62);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/disc.dat", MiB(12), rng).ok());
  tb.FinishMastering();
  Process& boot = tb.kernel->CreateProcess("boot");
  const auto rows = CalibrateSledsTable(*tb.kernel, boot).value();
  bool found = false;
  for (const CalibrationRow& row : rows) {
    if (row.name == "cdrom") {
      found = true;
      EXPECT_TRUE(row.filled);
      EXPECT_NEAR(row.measured.bandwidth_bps / 1e6, 2.8, 0.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExperimentTest, PerRunSetupInvokedBeforeEveryRun) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 63);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng grng(63);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/t.txt", MiB(1), grng).ok());
  int setups = 0;
  int runs = 0;
  Rng rng(64);
  (void)RunWarmCacheSeries(
      tb, 5, rng, [&](SimKernel&, Process&, Rng&) { ++setups; },
      [&](SimKernel&, Process&) { ++runs; });
  EXPECT_EQ(runs, 6);    // warm-up + 5 measured
  EXPECT_EQ(setups, 6);  // setup precedes every run including the warm-up
}

}  // namespace
}  // namespace sled
