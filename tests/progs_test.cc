// Tests for completion programs (src/progs + SimKernel::InstallProgram /
// RunProgram). The contract under test, in order of importance:
//
//   1. Results are *identical* to the userspace oracle — programs may only
//      change where the work runs, never what it computes.
//   2. The sandbox holds: resource caps abort the program, not the kernel,
//      and a malformed chain faults the program, not the kernel.
//   3. Simulated time is deterministic (identical worlds agree) and the
//      program path is never slower than the oracle it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/apps/find.h"
#include "src/apps/fimhisto.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/device/network_device.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/progs/program.h"
#include "src/replica/replicated_fs.h"
#include "src/workload/chain_gen.h"
#include "src/workload/fits_gen.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(IoMode mode = IoMode::kFifoSync, int64_t cache_pages = 2048) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  config.io.mode = mode;
  w.kernel = std::make_unique<SimKernel>(config);
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

std::string MakeText(uint64_t seed, int64_t target) {
  Rng rng(seed);
  std::string data;
  while (static_cast<int64_t>(data.size()) < target) {
    const int64_t word = rng.Uniform(1, 12);
    for (int64_t i = 0; i < word; ++i) {
      data.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
    }
    data.push_back(rng.Bernoulli(0.2) ? '\n' : ' ');
  }
  return data;
}

std::string ReadWholeFile(SimKernel& k, Process& p, const std::string& path) {
  const int fd = k.Open(p, path).value();
  std::string out;
  std::vector<char> buf(static_cast<size_t>(64 * kKiB));
  while (true) {
    const int64_t n = k.Read(p, fd, std::span<char>(buf.data(), buf.size())).value();
    if (n == 0) {
      break;
    }
    out.append(buf.data(), static_cast<size_t>(n));
  }
  EXPECT_TRUE(k.Close(p, fd).ok());
  return out;
}

// ---- the histogram's shared loops against fimhisto's former per-pass loops ----

// fimhisto's pass-2 and pass-3 loops as they were before HistogramMinMax and
// HistogramBin replaced them (the kHistogram program ran the same two).
// OracleBin's conversion is defined only when the quotient truncates into
// int, so it is fed only such values.
void OracleMinMax(std::span<const double> values, double& lo, double& hi) {
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
}

void OracleBin(std::span<const double> values, double lo, double width, int num_bins,
               std::vector<int64_t>& bins) {
  for (double v : values) {
    int bin = static_cast<int>((v - lo) / width);
    bin = std::clamp(bin, 0, num_bins - 1);
    ++bins[static_cast<size_t>(bin)];
  }
}

bool QuotientFitsInt(double v, double lo, double width) {
  const double q = (v - lo) / width;
  return q > -2147483649.0 && q < 2147483648.0;
}

// Ways to cut a span of n values into consecutive calls, as boundary lists:
// whole, at every cut point (up to 64 values), one value per call, and eight
// seeded three-way cuts.
std::vector<std::vector<size_t>> Splits(size_t n, std::mt19937_64& gen) {
  std::vector<std::vector<size_t>> splits = {{0, n}};
  for (size_t cut = 0; cut <= n && n <= 64; ++cut) {
    splits.push_back({0, cut, n});
  }
  std::vector<size_t> singles;
  for (size_t i = 0; i <= n; ++i) {
    singles.push_back(i);
  }
  splits.push_back(singles);
  for (int k = 0; k < 8; ++k) {
    const size_t a = gen() % (n + 1);
    const size_t b = gen() % (n + 1);
    splits.push_back({0, std::min(a, b), std::max(a, b), n});
  }
  return splits;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(HistogramLoopTest, MinMaxMatchesOracleAtEverySplit) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 gen(5);
  std::normal_distribution<double> normal(0.0, 30.0);
  std::vector<std::vector<double>> inputs = {
      {},
      {kNan},
      {kNan, 3.0, kNan, -2.0, kNan},
      {kInf, -kInf, 1.0},
      {0.0, -0.0},
      {-0.0, 0.0},
      {-1.0, 0.0, -0.0},
      {-1.0, -0.0, 0.0},
      {1.0, -0.0, 0.0},
      {1.0, 0.0, -0.0},
      {0.0, -0.0, 0.0, -0.0},
  };
  for (int r = 0; r < 4; ++r) {
    std::vector<double> values;
    for (int i = 0; i < 300; ++i) {
      const uint64_t pick = gen() % 16;
      values.push_back(pick == 0 ? kNan : pick == 1 ? 0.0 : pick == 2 ? -0.0 : normal(gen));
    }
    inputs.push_back(values);
  }
  // Inputs long enough for HistogramMinMax's eight lanes. A zero tie at the
  // minimum (the rest positive) or at the maximum (the rest negative), with
  // the first zero at every position mod 8 and the other zero in each of the
  // next eight positions, so every lane but the first zero's starts with the
  // other sign.
  for (const size_t n : {64, 1000}) {
    for (const double rest : {1.0, -1.0}) {
      for (const double first_zero : {0.0, -0.0}) {
        for (size_t first = 0; first < 8; ++first) {
          std::vector<double> values(n);
          for (size_t i = 0; i < n; ++i) {
            values[i] = rest * (1.0 + std::abs(normal(gen)));
          }
          values[first] = first_zero;
          for (size_t k = 1; k <= 8; ++k) {
            values[first + k] = -first_zero;
          }
          inputs.push_back(values);
        }
      }
    }
    // NaN at every lane position, all NaN, and infinite runs.
    for (size_t lane = 0; lane < 8; ++lane) {
      std::vector<double> values(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = i % 8 == lane ? kNan : normal(gen);
      }
      inputs.push_back(values);
    }
    inputs.push_back(std::vector<double>(n, kNan));
    inputs.push_back(std::vector<double>(n, kInf));
    inputs.push_back(std::vector<double>(n, -kInf));
    std::vector<double> mixed(n);
    for (size_t i = 0; i < n; ++i) {
      mixed[i] = i % 3 == 0 ? kInf : i % 3 == 1 ? -kInf : kNan;
    }
    inputs.push_back(mixed);
  }
  for (size_t c = 0; c < inputs.size(); ++c) {
    const std::vector<double>& values = inputs[c];
    double want_lo = kInf;
    double want_hi = -kInf;
    OracleMinMax(values, want_lo, want_hi);
    for (const std::vector<size_t>& cuts : Splits(values.size(), gen)) {
      double lo = kInf;
      double hi = -kInf;
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        HistogramMinMax(std::span<const double>(values).subspan(cuts[k], cuts[k + 1] - cuts[k]),
                        &lo, &hi);
      }
      ASSERT_TRUE(SameBits(lo, want_lo)) << "input " << c << ": " << lo << " vs " << want_lo;
      ASSERT_TRUE(SameBits(hi, want_hi)) << "input " << c << ": " << hi << " vs " << want_hi;
    }
  }
  // The first of tied zeros stays, at the minimum and at the maximum.
  auto min_max = [&](std::vector<double> values) {
    double lo = kInf;
    double hi = -kInf;
    HistogramMinMax(values, &lo, &hi);
    return std::pair{lo, hi};
  };
  EXPECT_FALSE(std::signbit(min_max({0.0, -0.0}).first));
  EXPECT_FALSE(std::signbit(min_max({0.0, -0.0}).second));
  EXPECT_TRUE(std::signbit(min_max({-0.0, 0.0}).first));
  EXPECT_TRUE(std::signbit(min_max({-0.0, 0.0}).second));
  EXPECT_FALSE(std::signbit(min_max({-1.0, 0.0, -0.0}).second));
  EXPECT_TRUE(std::signbit(min_max({-1.0, -0.0, 0.0}).second));
  EXPECT_TRUE(std::signbit(min_max({1.0, -0.0, 0.0}).first));
  EXPECT_FALSE(std::signbit(min_max({1.0, 0.0, -0.0}).first));
  // NaN is skipped wherever it falls.
  EXPECT_EQ(min_max({kNan, 2.0, kNan, -3.0, kNan}), (std::pair{-3.0, 2.0}));
}

TEST(HistogramLoopTest, BinMatchesOracleAtEverySplit) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 gen(9);
  struct Case {
    double lo;
    double hi;
    int num_bins;
  };
  // The last case is wider than kProgMaxBins, which the app path allows.
  for (const Case& hc : {Case{-10.0, 10.0, 8}, Case{0.0, 1.0, 3}, Case{5.0, 5.0, 4},
                         Case{-1e6, 3e6, kProgMaxBins}, Case{0.0, 100.0, kProgMaxBins * 4}}) {
    SCOPED_TRACE(testing::Message() << "lo " << hc.lo << " hi " << hc.hi << " bins "
                                    << hc.num_bins);
    const double width = hc.hi > hc.lo ? (hc.hi - hc.lo) / hc.num_bins : 1.0;
    std::vector<double> values;
    // Every bin edge, values just inside and outside the range, below lo and
    // above hi by a little and by a lot, then random values across the range.
    for (int k = 0; k <= hc.num_bins; ++k) {
      values.push_back(hc.lo + k * width);
    }
    for (const double v : {hc.lo - 1.0, std::nextafter(hc.lo, -kInf), std::nextafter(hc.hi, kInf),
                           hc.hi + 1.0, hc.hi + width * 1e9, hc.lo - width * 1e9, hc.hi * 1e300,
                           -1e300, kNan, kInf, -kInf, 0.0, -0.0}) {
      values.push_back(v);
    }
    std::uniform_real_distribution<double> in_range(hc.lo - width, hc.hi + width);
    for (int i = 0; i < 400; ++i) {
      values.push_back(in_range(gen));
    }
    std::shuffle(values.begin(), values.end(), gen);
    // Oracle: the former loop over the values it is defined for; the rest
    // go to bin 0.
    std::vector<int64_t> want(static_cast<size_t>(hc.num_bins), 0);
    for (const double v : values) {
      if (QuotientFitsInt(v, hc.lo, width)) {
        OracleBin(std::span<const double>(&v, 1), hc.lo, width, hc.num_bins, want);
      } else {
        ++want[0];
      }
    }
    for (const std::vector<size_t>& cuts : Splits(values.size(), gen)) {
      // One guard bin on each side must stay zero.
      std::vector<int64_t> bins(static_cast<size_t>(hc.num_bins) + 2, 0);
      const std::span<int64_t> inner(bins.data() + 1, static_cast<size_t>(hc.num_bins));
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        HistogramBin(std::span<const double>(values).subspan(cuts[k], cuts[k + 1] - cuts[k]),
                     hc.lo, width, inner);
      }
      ASSERT_EQ(bins.front(), 0);
      ASSERT_EQ(bins.back(), 0);
      ASSERT_EQ(std::vector<int64_t>(inner.begin(), inner.end()), want);
    }
  }
  // The quotients the conversion cannot take all land in bin 0.
  std::vector<int64_t> bins(4, 0);
  const std::vector<double> outside = {kNan, kInf, -kInf, 1e300, -1e300, 2147483648.0 + 3.0};
  HistogramBin(outside, 3.0, 1.0, bins);
  EXPECT_EQ(bins, (std::vector<int64_t>{6, 0, 0, 0}));
  // Just inside int's range truncates and clamps as before.
  bins.assign(4, 0);
  HistogramBin(std::vector<double>{2147483647.0 + 3.0, -2147483648.0 + 3.0}, 3.0, 1.0, bins);
  EXPECT_EQ(bins, (std::vector<int64_t>{1, 0, 0, 1}));
}

TEST(HistogramLoopTest, BinMatchesOracleAtEveryLength) {
  // Every call length from 0 to 1032: each remainder of the four-value step,
  // at every count of whole steps up to there.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kMaxLength = 1032;
  const double outside[] = {kNan, kInf, -kInf, 1e300, -1e300};
  std::mt19937_64 gen(13);
  for (const int num_bins : {1, 64, kProgMaxBins}) {
    SCOPED_TRACE(testing::Message() << "bins " << num_bins);
    const double lo = -4.0;
    const double width = 8.0 / num_bins;
    // Values in range, below and above it, the ones the conversion cannot
    // take, and runs of one value.
    std::uniform_real_distribution<double> around(lo - 2.0, lo + 10.0);
    std::vector<double> values;
    while (values.size() < kMaxLength) {
      switch (gen() % 8) {
        case 0:
          values.push_back(outside[gen() % std::size(outside)]);
          break;
        case 1:
          values.insert(values.end(), gen() % 9, around(gen));
          break;
        default:
          values.push_back(around(gen));
      }
    }
    values.resize(kMaxLength);
    std::vector<int64_t> want(static_cast<size_t>(num_bins), 0);
    for (size_t n = 0; n <= kMaxLength; ++n) {
      // One guard bin on each side must stay zero.
      std::vector<int64_t> bins(static_cast<size_t>(num_bins) + 2, 0);
      const std::span<int64_t> inner(bins.data() + 1, static_cast<size_t>(num_bins));
      HistogramBin(std::span<const double>(values).first(n), lo, width, inner);
      ASSERT_EQ(bins.front(), 0) << "length " << n;
      ASSERT_EQ(bins.back(), 0) << "length " << n;
      ASSERT_EQ(std::vector<int64_t>(inner.begin(), inner.end()), want) << "length " << n;
      if (n < kMaxLength) {
        if (QuotientFitsInt(values[n], lo, width)) {
          OracleBin(std::span<const double>(&values[n], 1), lo, width, num_bins, want);
        } else {
          ++want[0];
        }
      }
    }
  }
}

// ---- result identity: program == oracle, in both engine modes ----

class ProgsModeTest : public ::testing::TestWithParam<IoMode> {};

TEST_P(ProgsModeTest, WcProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  const int64_t size = 48 * kPageSize + 1234;
  // Random bytes cover every byte value, and their long words cross chunk
  // seams, so the program's in_word carry and the oracle's seam merge meet.
  Rng rng(102);
  std::string random_bytes;
  for (int64_t i = 0; i < size; ++i) {
    random_bytes.push_back(static_cast<char>(static_cast<uint8_t>(rng.Uniform(0, 255))));
  }
  WriteFile(*w.kernel, *w.proc, "/text", MakeText(101, size));
  WriteFile(*w.kernel, *w.proc, "/bytes", random_bytes);

  WcOptions plain;
  plain.buffer_bytes = 3 * kPageSize;  // word seams off page boundaries
  WcOptions prog = plain;
  prog.kernel_program = true;
  for (const char* path : {"/text", "/bytes"}) {
    SCOPED_TRACE(path);
    const WcResult oracle = WcApp::Run(*w.kernel, *w.proc, path, plain).value();
    // Warm cache (the oracle above populated it), then cold.
    EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, path, prog).value(), oracle);
    w.kernel->DropCaches();
    EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, path, prog).value(), oracle);
  }
}

TEST_P(ProgsModeTest, GrepProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  Process& p = *w.proc;
  Rng rng(7);
  ASSERT_TRUE(GenerateTextFile(*w.kernel, p, "/t.txt", 2 * kMiB, rng).ok());
  ASSERT_TRUE(PlaceMarker(*w.kernel, p, "/t.txt", 1200 * kKiB).ok());
  w.kernel->DropCaches();

  GrepOptions oracle_opts;
  oracle_opts.quiet_first_match = true;
  GrepOptions prog_opts = oracle_opts;
  prog_opts.kernel_program = true;
  for (bool use_sleds : {false, true}) {
    oracle_opts.use_sleds = use_sleds;
    prog_opts.use_sleds = use_sleds;
    const bool expect =
        GrepApp::Run(*w.kernel, p, "/t.txt", kGrepMarker, oracle_opts).value().found;
    EXPECT_TRUE(expect);
    EXPECT_EQ(GrepApp::Run(*w.kernel, p, "/t.txt", kGrepMarker, prog_opts).value().found,
              expect);
    // A pattern that is not in the file: both say no.
    EXPECT_FALSE(GrepApp::Run(*w.kernel, p, "/t.txt", "ZMISSINGZ", oracle_opts).value().found);
    EXPECT_FALSE(GrepApp::Run(*w.kernel, p, "/t.txt", "ZMISSINGZ", prog_opts).value().found);
  }
}

TEST_P(ProgsModeTest, GrepProgramFindsChunkStraddlingMatch) {
  World w = MakeWorld(GetParam());
  // The only occurrence straddles the plan-chunk boundary: the program's
  // pattern_len-1 chunk overlap must catch it.
  const int64_t chunk = 2 * kPageSize;
  std::string data(static_cast<size_t>(3 * chunk), 'a');
  const std::string needle = "XSTRADDLEX";
  data.replace(static_cast<size_t>(chunk) - 4, needle.size(), needle);
  WriteFile(*w.kernel, *w.proc, "/s.txt", data);
  w.kernel->DropCaches();

  GrepOptions opts;
  opts.quiet_first_match = true;
  opts.buffer_bytes = chunk;
  opts.kernel_program = true;
  EXPECT_TRUE(GrepApp::Run(*w.kernel, *w.proc, "/s.txt", needle, opts).value().found);
}

TEST_P(ProgsModeTest, ChainProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  Rng rng(42);
  ChainGenOptions gen;
  gen.num_blocks = 512;
  gen.marker_every = 19;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ChainOptions opts;
  opts.name_contains = std::string(kChainMarker);
  ChainOptions prog = opts;
  prog.kernel_program = true;
  // Cold, then warm: the answers never depend on the cache.
  w.kernel->DropCaches();
  const ChainResult oracle_cold = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  w.kernel->DropCaches();
  const ChainResult prog_cold = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(oracle_cold, prog_cold);
  EXPECT_EQ(oracle_cold.blocks_visited, gen.num_blocks);
  EXPECT_EQ(oracle_cold.names_matched, gen.num_blocks / gen.marker_every);
  const ChainResult oracle_warm = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  const ChainResult prog_warm = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(oracle_cold, oracle_warm);
  EXPECT_EQ(oracle_cold, prog_warm);
}

TEST_P(ProgsModeTest, ChainHopBudgetCutsBothPathsEqually) {
  World w = MakeWorld(GetParam());
  Rng rng(43);
  ChainGenOptions gen;
  gen.num_blocks = 256;
  gen.marker_every = 5;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ChainOptions opts;
  opts.name_contains = std::string(kChainMarker);
  opts.max_hops = 77;
  ChainOptions prog = opts;
  prog.kernel_program = true;
  const ChainResult a = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  const ChainResult b = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.blocks_visited, 77);
}

// Runs fimhisto on `path` once as the app (passes 2-3 in user space) and once
// with the kHistogram program, from a cold cache each time, and expects the
// same histogram, bit-identical min/max, and byte-identical output files.
void ExpectFimhistoProgramMatchesOracle(World& w, const std::string& path,
                                        const FimhistoOptions& opts) {
  w.kernel->DropCaches();
  const FimhistoResult oracle =
      FimhistoApp::Run(*w.kernel, *w.proc, path, "/out_oracle", opts).value();
  FimhistoOptions prog = opts;
  prog.kernel_program = true;
  w.kernel->DropCaches();
  const FimhistoResult kernelside =
      FimhistoApp::Run(*w.kernel, *w.proc, path, "/out_prog", prog).value();

  EXPECT_EQ(std::memcmp(&oracle.min_value, &kernelside.min_value, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&oracle.max_value, &kernelside.max_value, sizeof(double)), 0);
  EXPECT_EQ(oracle.bins, kernelside.bins);
  // The output files (copy + appended histogram extension) must be
  // byte-identical too.
  EXPECT_EQ(ReadWholeFile(*w.kernel, *w.proc, "/out_oracle"),
            ReadWholeFile(*w.kernel, *w.proc, "/out_prog"));
}

TEST_P(ProgsModeTest, FimhistoProgramMatchesOracle) {
  for (const int bitpix : {-32, 16, -64}) {
    SCOPED_TRACE(testing::Message() << "bitpix " << bitpix);
    World w = MakeWorld(GetParam());
    Rng rng(11);
    ASSERT_TRUE(GenerateFitsImage(*w.kernel, *w.proc, "/img.fits", kMiB, bitpix, rng).ok());
    FimhistoOptions opts;
    opts.num_bins = 32;
    ExpectFimhistoProgramMatchesOracle(w, "/img.fits", opts);
  }
}

// NaN marks blank pixels in float images; with infinities the bin quotients
// come out NaN or infinite too. The app and the program must still agree,
// and every pixel lands in some bin.
TEST_P(ProgsModeTest, FimhistoProgramMatchesOracleOnNanAndInfPixels) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> specials = {
      {kNan}, {kNan, kInf}, {kNan, -kInf}, {kNan, kInf, -kInf}};
  for (const int bitpix : {-32, -64}) {
    for (const std::vector<double>& special : specials) {
      SCOPED_TRACE(testing::Message() << "bitpix " << bitpix << " specials " << special.size());
      World w = MakeWorld(GetParam());
      FitsImage image;
      image.header.bitpix = bitpix;
      image.header.naxis = {8, 8};
      for (int i = 0; i < 64; ++i) {
        image.pixels.push_back(static_cast<double>(i % 13) - 4.0);
      }
      for (size_t i = 0; i < special.size(); ++i) {
        image.pixels[5 + 23 * i] = special[i];
      }
      ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/img.fits", image).ok());
      FimhistoOptions opts;
      opts.num_bins = 16;
      opts.buffer_elements = 24;  // several runs and program chunks
      ExpectFimhistoProgramMatchesOracle(w, "/img.fits", opts);
      const FimhistoResult r =
          FimhistoApp::Run(*w.kernel, *w.proc, "/img.fits", "/out", opts).value();
      EXPECT_EQ(std::accumulate(r.bins.begin(), r.bins.end(), int64_t{0}), 64);
      if (special.size() == 1) {  // NaN alone is skipped by min/max
        EXPECT_EQ(r.min_value, -4.0);
        EXPECT_EQ(r.max_value, 8.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EngineModes, ProgsModeTest,
                         ::testing::Values(IoMode::kFifoSync, IoMode::kElevator));

// ---- sandbox: caps and faults hit the program, never the kernel ----

TEST(ProgsSandboxTest, StepCapAbortsProgramNotKernel) {
  World w = MakeWorld();
  const std::string data = MakeText(5, 16 * kPageSize);
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);

  ProgSpec spec;
  spec.kind = ProgKind::kCount;
  spec.chunk_bytes = kPageSize;
  spec.limits.max_step_bytes = 3 * kPageSize;  // far smaller than the file
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kAbortedSteps);
  // The cap is checked after the offending chunk is counted, so the program
  // can overshoot by at most one chunk before it is killed.
  EXPECT_LE(r.bytes_examined, spec.limits.max_step_bytes + spec.chunk_bytes);

  // The kernel is fine: the same fd still reads, and a fresh (unbounded)
  // program on the same fd completes.
  char b = 0;
  EXPECT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  EXPECT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  spec.limits = ProgLimits{};
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  EXPECT_EQ(w.kernel->RunProgram(*w.proc, fd).value().status, ProgStatus::kOk);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  // The app wrapper surfaces the abort as an error.
  WcOptions opts;
  opts.kernel_program = true;
  opts.buffer_bytes = kPageSize;
  // (app uses default limits, so it succeeds; the abort path was covered
  // above via the raw syscalls.)
  EXPECT_TRUE(WcApp::Run(*w.kernel, *w.proc, "/f.txt", opts).ok());
}

TEST(ProgsSandboxTest, ResubmitCapAbortsProgramNotKernel) {
  World w = MakeWorld();
  Rng rng(9);
  ChainGenOptions gen;
  gen.num_blocks = 64;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ProgSpec spec;
  spec.kind = ProgKind::kChainWalk;
  spec.block_bytes = gen.block_bytes;
  spec.limits.max_resubmits = 4;
  const int fd = w.kernel->Open(*w.proc, "/chain").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kAbortedResubmits);
  EXPECT_EQ(r.blocks_visited, 5);  // head + 4 chained reads
  EXPECT_EQ(r.resubmits, 4);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(ProgsSandboxTest, BadChainPointerFaultsProgramNotKernel) {
  World w = MakeWorld();
  Rng rng(10);
  ChainGenOptions gen;
  gen.num_blocks = 8;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());
  // Corrupt the head block's next pointer to point past EOF.
  {
    const int fd = w.kernel->Open(*w.proc, "/chain").value();
    char next[8];
    const int64_t bogus = gen.num_blocks * gen.block_bytes + kPageSize;
    for (int i = 0; i < 8; ++i) {
      next[i] = static_cast<char>((static_cast<uint64_t>(bogus) >> (8 * i)) & 0xff);
    }
    ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(next, 8)).ok());
    ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  }

  ProgSpec spec;
  spec.kind = ProgKind::kChainWalk;
  spec.block_bytes = gen.block_bytes;
  const int fd = w.kernel->Open(*w.proc, "/chain").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kFaulted);
  EXPECT_EQ(r.blocks_visited, 1);
  // Kernel is unharmed: normal reads on the same fd still work.
  char b = 0;
  EXPECT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  EXPECT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(ProgsSandboxTest, InstallRejectsInvalidSpecs) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "hello");
  const int fd = w.kernel->Open(*w.proc, "/f").value();

  ProgSpec no_pattern;
  no_pattern.kind = ProgKind::kFindFirst;  // find-first requires a pattern
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, no_pattern).error(), Err::kInval);

  ProgSpec tiny_block;
  tiny_block.kind = ProgKind::kChainWalk;
  tiny_block.block_bytes = 8;  // below the 16-byte chain header
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, tiny_block).error(), Err::kInval);

  ProgSpec many_bins;
  many_bins.kind = ProgKind::kHistogram;
  many_bins.num_bins = kProgMaxBins + 1;
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, many_bins).error(), Err::kInval);

  // A histogram data unit whose end does not fit in int64: first the element
  // bytes overflow, then the offset added to them.
  ProgSpec huge_image;
  huge_image.kind = ProgKind::kHistogram;
  huge_image.num_bins = 8;
  huge_image.bitpix = -64;
  huge_image.element_count = int64_t{1} << 61;
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, huge_image).error(), Err::kInval);
  huge_image.element_count = std::numeric_limits<int64_t>::max() / 8;
  huge_image.data_offset = 2880;
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, huge_image).error(), Err::kInval);

  ProgSpec huge_pattern;
  huge_pattern.kind = ProgKind::kFindFirst;
  huge_pattern.pattern.assign(kProgMaxPattern + 1, 'x');
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, huge_pattern).error(), Err::kInval);

  // Running with nothing installed is invalid too.
  EXPECT_EQ(w.kernel->RunProgram(*w.proc, fd).error(), Err::kInval);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

// kCount carries its word state from the chunk consumed before, which is the
// byte before a chunk only in file order. Once an 8 KiB read has cached the
// pages at 24576, a SLED-ordered plan consumes the chunk starting there, on
// the space after a word, first, and counted one word too few (37448). So
// Create refuses it, and the file-order plan counts what CountWcChunk does.
TEST(ProgsSandboxTest, SledOrderedCountIsRefused) {
  Testbed tb = MakeTestbed(TestbedConfig{});
  SimKernel& k = *tb.kernel;
  Process& p = k.CreateProcess("wc");
  std::string data;
  while (data.size() < 256 * kKiB) {
    data += "abcdef ";
  }
  data.resize(256 * kKiB - 3);
  data += "xy\n";
  WriteFile(k, p, "/data/words", data);
  k.DropCaches();
  const int fd = k.Open(p, "/data/words").value();
  std::vector<char> buf(8 * kKiB);
  ASSERT_EQ(data[24576], ' ');
  ASSERT_TRUE(k.Lseek(p, fd, 24576, Whence::kSet).ok());
  ASSERT_EQ(k.Read(p, fd, buf).value(), 8 * kKiB);

  ProgSpec spec;
  spec.kind = ProgKind::kCount;
  spec.order_by_sleds = true;
  EXPECT_EQ(k.InstallProgram(p, fd, spec).error(), Err::kInval);
  spec.order_by_sleds = false;
  ASSERT_TRUE(k.InstallProgram(p, fd, spec).ok());
  const ProgResult r = k.RunProgram(p, fd).value();
  EXPECT_EQ(r.words, 37449);
  EXPECT_EQ(r.words, CountWcChunk(data, /*in_word=*/false).words);
  EXPECT_TRUE(k.Close(p, fd).ok());
}

// ---- timing: deterministic and never slower ----

TEST(ProgsTimingTest, ProgramNeverSlowerThanOracleAndDeterministic) {
  Duration oracle_time;
  Duration prog_time;
  Duration prog_time_repeat;
  const std::string data = MakeText(77, 96 * kPageSize);
  for (int round = 0; round < 3; ++round) {
    World w = MakeWorld();
    WriteFile(*w.kernel, *w.proc, "/f.txt", data);
    w.kernel->DropCaches();
    Process& runner = w.kernel->CreateProcess("runner");
    WcOptions opts;
    opts.kernel_program = round > 0;
    ASSERT_TRUE(WcApp::Run(*w.kernel, runner, "/f.txt", opts).ok());
    (round == 0 ? oracle_time : round == 1 ? prog_time : prog_time_repeat) =
        runner.stats().elapsed();
  }
  EXPECT_EQ(prog_time, prog_time_repeat);  // bit-identical replay
  EXPECT_LT(prog_time, oracle_time);       // the whole point of the PR
}

TEST(ProgsTimingTest, IdenticalAcrossWorlds) {
  ChainResult results[2];
  Duration times[2];
  for (int world = 0; world < 2; ++world) {
    World w = MakeWorld();
    Rng rng(123);
    ChainGenOptions gen;
    gen.num_blocks = 300;
    gen.marker_every = 7;
    ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());
    w.kernel->DropCaches();
    Process& runner = w.kernel->CreateProcess("runner");
    ChainOptions opts;
    opts.name_contains = std::string(kChainMarker);
    opts.kernel_program = true;
    results[world] = FindApp::RunChain(*w.kernel, runner, "/chain", opts).value();
    times[world] = runner.stats().elapsed();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(times[0], times[1]);
}

TEST(ProgsTimingTest, InstallAloneChargesOnlyTheInstaller) {
  // A process that installs (but never runs) a program must not change
  // another process's observed costs.
  Duration other_elapsed[2];
  const std::string data = MakeText(3, 8 * kPageSize);
  for (int with_install = 0; with_install < 2; ++with_install) {
    World w = MakeWorld();
    WriteFile(*w.kernel, *w.proc, "/f.txt", data);
    w.kernel->DropCaches();
    if (with_install == 1) {
      Process& installer = w.kernel->CreateProcess("installer");
      const int fd = w.kernel->Open(installer, "/f.txt").value();
      ProgSpec spec;
      spec.kind = ProgKind::kCount;
      ASSERT_TRUE(w.kernel->InstallProgram(installer, fd, spec).ok());
      ASSERT_TRUE(w.kernel->Close(installer, fd).ok());
      w.kernel->DropCaches();
    }
    Process& other = w.kernel->CreateProcess("other");
    ASSERT_TRUE(WcApp::Run(*w.kernel, other, "/f.txt", WcOptions{}).ok());
    other_elapsed[with_install] = other.stats().elapsed();
  }
  EXPECT_EQ(other_elapsed[0], other_elapsed[1]);
}

TEST(ProgsTimingTest, ChainProgramEliminatesPerHopSyscalls) {
  World w = MakeWorld();
  Rng rng(55);
  ChainGenOptions gen;
  gen.num_blocks = 400;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  int64_t syscalls[2];
  for (int use_prog = 0; use_prog < 2; ++use_prog) {
    Process& runner = w.kernel->CreateProcess(use_prog ? "prog" : "oracle");
    ChainOptions opts;
    opts.kernel_program = use_prog == 1;
    ASSERT_TRUE(FindApp::RunChain(*w.kernel, runner, "/chain", opts).ok());
    syscalls[use_prog] = runner.stats().syscalls;
  }
  // Acceptance: at least a 2x reduction in kernel crossings (in practice it
  // is ~hops/1: two per hop down to a constant handful).
  EXPECT_GE(syscalls[0], 2 * syscalls[1]);
}

// ---- programs run against any mounted file system ----

TEST(ProgsFsTest, RunsOnReplicatedFs) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = 2048;
  w.kernel = std::make_unique<SimKernel>(config);
  std::vector<std::unique_ptr<StorageDevice>> replicas;
  replicas.push_back(std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  SsdDeviceConfig sc;
  replicas.push_back(std::make_unique<SsdDevice>(sc));
  NetworkDeviceConfig nc;
  replicas.push_back(std::make_unique<NetworkDevice>(nc));
  auto fs = std::make_unique<ReplicatedFs>("repl", std::move(replicas), ReplicatedFsConfig{});
  ASSERT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");

  const std::string data = MakeText(21, 24 * kPageSize);
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  const WcResult oracle = WcApp::Run(*w.kernel, *w.proc, "/f.txt", WcOptions{}).value();
  WcOptions prog;
  prog.kernel_program = true;
  w.kernel->DropCaches();
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", prog).value(), oracle);
}

TEST(ProgsFsTest, GrepProgramRequiresQuiet) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "needle\n");
  GrepOptions opts;
  opts.kernel_program = true;  // but not -q: the program cannot return lines
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f", "needle", opts).error(), Err::kInval);
}

}  // namespace
}  // namespace sled
