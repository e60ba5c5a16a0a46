// Microbenchmarks for the SLEDs hot paths: cache ops, kernel SLED scans,
// picker stepping, wc's count, grep's search, random draws and text
// generation, the FITS pixel and row codecs, the histogram loops,
// fimgbin's boxcar and the syscall boundary's observer hooks.
// These bound the CPU overhead the SLEDs machinery adds per I/O.
//
// Two layers:
//  * A wall-clock suite (std::chrono, real time — NOT the simulated clock)
//    that pits the run-indexed page cache against naive page-at-a-time
//    replicas of the old algorithms, the FITS row kernels against
//    one-value-at-a-time replicas, wc's SSE2 count against its former
//    block loop, its AVX2 count against the SSE2 one, and the syscall hooks
//    against their former string-keyed replica, and emits a
//    BENCH_micro.json block.
//  * The google-benchmark registrations, run afterwards.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/fimgbin.h"
#include "src/apps/grep.h"
#include "src/cache/page_cache.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/disk_device.h"
#include "src/fits/fits.h"
#include "src/fs/extent_file_system.h"
#include "src/kernel/sim_kernel.h"
#include "src/progs/program.h"
#include "src/sleds/picker.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

void BM_PageCacheTouchHit(benchmark::State& state) {
  PageCache cache({.capacity_pages = 4096});
  for (int64_t p = 0; p < 4096; ++p) {
    cache.Insert({1, p}, false);
  }
  int64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch({1, p}));
    p = (p + 1) & 4095;
  }
}
BENCHMARK(BM_PageCacheTouchHit);

void BM_PageCacheInsertEvict(benchmark::State& state) {
  PageCache cache({.capacity_pages = 1024});
  int64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert({1, p++}, false));
  }
}
BENCHMARK(BM_PageCacheInsertEvict);

struct KernelFixture {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  int fd = -1;

  explicit KernelFixture(int64_t file_pages, int64_t stripe_period = 16,
                         int64_t stripe_len = 8) {
    KernelConfig config;
    config.cache.capacity_pages = file_pages;
    kernel = std::make_unique<SimKernel>(config);
    auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
    (void)kernel->Mount("/", std::move(fs));
    proc = &kernel->CreateProcess("bench");
    const int cfd = kernel->Create(*proc, "/f").value();
    const std::string data(static_cast<size_t>(file_pages * kPageSize), 'x');
    (void)kernel->Write(*proc, cfd, std::span<const char>(data.data(), data.size()));
    (void)kernel->Close(*proc, cfd);
    // Cache alternating stripes so scans see many SLED transitions.
    kernel->DropCaches();
    fd = kernel->Open(*proc, "/f").value();
    char b;
    for (int64_t page = 0; page < file_pages; page += stripe_period) {
      for (int64_t q = page; q < std::min(page + stripe_len, file_pages); ++q) {
        (void)kernel->Lseek(*proc, fd, q * kPageSize, Whence::kSet);
        (void)kernel->Read(*proc, fd, std::span<char>(&b, 1));
      }
    }
  }
};

void BM_SledsGetScan(benchmark::State& state) {
  KernelFixture fx(state.range(0));
  for (auto _ : state) {
    auto sleds = fx.kernel->IoctlSledsGet(*fx.proc, fx.fd);
    benchmark::DoNotOptimize(sleds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SledsGetScan)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_PickerFullWalk(benchmark::State& state) {
  KernelFixture fx(state.range(0));
  for (auto _ : state) {
    auto picker = SledsPicker::Create(*fx.kernel, *fx.proc, fx.fd, PickerOptions{}).value();
    int64_t total = 0;
    while (true) {
      auto pick = picker->NextRead().value();
      if (pick.length == 0) {
        break;
      }
      total += pick.length;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PickerFullWalk)->Arg(1024)->Arg(8192);

// 1 MiB of generator text (the wc and grep figures' input), read back
// through a kernel.
std::string GeneratedText() {
  constexpr int64_t kBytes = 1 << 20;
  KernelConfig config;
  config.cache.capacity_pages = 2 * kBytes / kPageSize;
  SimKernel kernel(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  SLED_CHECK(kernel.Mount("/", std::move(fs)).ok(), "mount failed");
  Process& proc = kernel.CreateProcess("gen");
  Rng rng(1);
  SLED_CHECK(GenerateTextFile(kernel, proc, "/text", kBytes, rng).ok(), "generation failed");
  const int fd = kernel.Open(proc, "/text").value();
  std::string text(static_cast<size_t>(kBytes), '\0');
  SLED_CHECK(kernel.Read(proc, fd, std::span<char>(text.data(), text.size())).value() == kBytes,
             "short read");
  return text;
}

// Reports ns per `unit` as counter "ns_per_<unit>": the counter's value is
// count * 1e-9 per iteration, and inverted as a rate it reads
// seconds / (count * 1e-9).
void SetNsPer(benchmark::State& state, const std::string& unit, size_t count) {
  state.counters["ns_per_" + unit] =
      benchmark::Counter(1e-9 * static_cast<double>(count),
                         benchmark::Counter::kIsIterationInvariantRate |
                             benchmark::Counter::kInvert);
}

// wc's counting loop (WcApp and the kCount program) over the apps' 64 KiB
// buffers of generator text.
void BM_WcCount(benchmark::State& state) {
  const std::string text = GeneratedText();
  const std::string_view view(text);
  for (auto _ : state) {
    WcCounts total;
    for (size_t at = 0; at < view.size(); at += kDefaultAppBuffer) {
      const WcCounts c = CountWcChunk(view.substr(at, kDefaultAppBuffer), /*in_word=*/false);
      total.lines += c.lines;
      total.words += c.words;
    }
    benchmark::DoNotOptimize(total);
  }
  SetNsPer(state, "byte", text.size());
}
BENCHMARK(BM_WcCount);

// HorspoolSearchAll (grep's search) over 1 MiB of generator text, one needle
// per registration: the workloads' marker, whose first byte the generator
// never writes, and two whose first byte is common.
void BM_HorspoolSearch(benchmark::State& state, std::string_view needle) {
  const std::string text = GeneratedText();
  const std::string_view view(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HorspoolSearchAll(view, needle));
  }
  SetNsPer(state, "byte", text.size());
}
BENCHMARK_CAPTURE(BM_HorspoolSearch, marker, kGrepMarker);
BENCHMARK_CAPTURE(BM_HorspoolSearch, the, std::string_view("the"));
BENCHMARK_CAPTURE(BM_HorspoolSearch, e_space_e, std::string_view("e e"));

// One letter draw (Uniform(0, 25), the text generator's inner step) per
// count: arg 0 draws from Rng, arg 1 from std::mt19937_64 through the same
// distribution, for comparison.
void BM_RngDraw(benchmark::State& state) {
  constexpr int kDraws = 4096;
  auto run = [&](auto&& draw) {
    for (auto _ : state) {
      int64_t sum = 0;
      for (int i = 0; i < kDraws; ++i) {
        sum += draw();
      }
      benchmark::DoNotOptimize(sum);
    }
    SetNsPer(state, "draw", kDraws);
  };
  const uint64_t seed = static_cast<uint64_t>(state.range(1));
  if (state.range(0) == 0) {
    state.SetLabel("Rng");
    Rng rng(seed);
    run([&] { return rng.Uniform(0, 25); });
  } else {
    state.SetLabel("std::mt19937_64");
    std::mt19937_64 engine(seed);
    run([&] { return std::uniform_int_distribution<int64_t>(0, 25)(engine); });
  }
}
BENCHMARK(BM_RngDraw)->Args({0, 1})->Args({1, 1});

// The text generator's in-memory line fill over one 256 KiB write chunk.
void BM_GenerateTextLines(benchmark::State& state) {
  std::string buf(256 * kKiB, '\0');
  Rng rng(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    FillTextLines(buf, rng);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  SetNsPer(state, "byte", buf.size());
}
BENCHMARK(BM_GenerateTextLines)->Arg(1);

void BM_FitsPixelCodec(benchmark::State& state) {
  const int bitpix = static_cast<int>(state.range(0));
  char buf[8];
  double v = 1.5;
  for (auto _ : state) {
    FitsEncodePixel(v, bitpix, buf);
    v = FitsDecodePixel(buf, bitpix) + 1.0;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_FitsPixelCodec)->Arg(16)->Arg(-32)->Arg(-64);

// One fimhisto/fimgbin run's worth of pixels (16 Ki elements): the FITS
// generator's gradient plus noise.
std::vector<double> RunPixels() {
  constexpr int64_t kSide = 128;
  Rng rng(3);
  std::vector<double> pixels;
  for (int64_t i = 0; i < kSide * kSide; ++i) {
    pixels.push_back(100.0 * static_cast<double>(i % kSide + i / kSide) / (2 * kSide) +
                     rng.Normal(0.0, 5.0));
  }
  return pixels;
}

// The row decoder every FITS read goes through (ReadRun, FitsReadImage, the
// kHistogram program).
void BM_FitsDecodeRow(benchmark::State& state) {
  const int bitpix = static_cast<int>(state.range(0));
  const std::vector<double> pixels = RunPixels();
  std::vector<char> bytes(pixels.size() * static_cast<size_t>(ProgElementSize(bitpix)));
  FitsEncodeRow(pixels, bitpix, bytes.data());
  std::vector<double> out(pixels.size());
  for (auto _ : state) {
    FitsDecodeRow(bytes.data(), bitpix, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetNsPer(state, "pixel", pixels.size());
}
BENCHMARK(BM_FitsDecodeRow)->Arg(16)->Arg(-32)->Arg(-64);

// The row encoder every FITS write goes through (FitsWriteImageRows).
void BM_FitsEncodeRow(benchmark::State& state) {
  const int bitpix = static_cast<int>(state.range(0));
  const std::vector<double> pixels = RunPixels();
  std::vector<char> bytes(pixels.size() * static_cast<size_t>(ProgElementSize(bitpix)));
  for (auto _ : state) {
    FitsEncodeRow(pixels, bitpix, bytes.data());
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  SetNsPer(state, "pixel", pixels.size());
}
BENCHMARK(BM_FitsEncodeRow)->Arg(16)->Arg(-32)->Arg(-64);

// fimhisto's pass 2 and the kHistogram program's min/max phase.
void BM_HistogramMinMax(benchmark::State& state) {
  const std::vector<double> pixels = RunPixels();
  for (auto _ : state) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    HistogramMinMax(pixels, &lo, &hi);
    benchmark::DoNotOptimize(lo);
    benchmark::DoNotOptimize(hi);
  }
  SetNsPer(state, "pixel", pixels.size());
}
BENCHMARK(BM_HistogramMinMax);

// fimhisto's pass 3 and the kHistogram program's binning phase, 64 bins, in
// calls of the argument's length: 16 Ki is an app run, 2048 the program's
// decode block, and 512 shows what the per-call zeroing and merging of the
// partial counts cost a short call.
void BM_HistogramBin(benchmark::State& state) {
  const std::vector<double> pixels = RunPixels();
  const auto call = static_cast<size_t>(state.range(0));
  const auto [lo, hi] = std::minmax_element(pixels.begin(), pixels.end());
  std::vector<int64_t> bins(64, 0);
  const double width = (*hi - *lo) / static_cast<double>(bins.size());
  for (auto _ : state) {
    for (size_t at = 0; at < pixels.size(); at += call) {
      HistogramBin(std::span<const double>(pixels).subspan(at, std::min(call, pixels.size() - at)),
                   *lo, width, bins);
    }
    benchmark::DoNotOptimize(bins.data());
    benchmark::ClobberMemory();
  }
  SetNsPer(state, "pixel", pixels.size());
}
BENCHMARK(BM_HistogramBin)->Arg(512)->Arg(2048)->Arg(16 * 1024);

// fimgbin's boxcar over one run of 16 Ki pixels, a 128-pixel-wide image, for
// the argument's box.
void BM_FimgbinAccumulate(benchmark::State& state) {
  constexpr int64_t kWidth = 128;
  const std::vector<double> pixels = RunPixels();
  const int64_t box = state.range(0);
  std::vector<double> sums(pixels.size() / static_cast<size_t>(box * box), 0.0);
  for (auto _ : state) {
    FimgbinAccumulate(0, pixels, kWidth, box, sums);
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  SetNsPer(state, "pixel", pixels.size());
}
BENCHMARK(BM_FimgbinAccumulate)->Arg(2)->Arg(4);

void BM_KernelCachedRead(benchmark::State& state) {
  KernelFixture fx(256);
  // Warm everything.
  char buf[65536];
  (void)fx.kernel->Lseek(*fx.proc, fx.fd, 0, Whence::kSet);
  while (fx.kernel->Read(*fx.proc, fx.fd, std::span<char>(buf, sizeof(buf))).value() > 0) {
  }
  for (auto _ : state) {
    (void)fx.kernel->Lseek(*fx.proc, fx.fd, 0, Whence::kSet);
    benchmark::DoNotOptimize(
        fx.kernel->Read(*fx.proc, fx.fd, std::span<char>(buf, sizeof(buf))));
  }
  state.SetBytesProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_KernelCachedRead);

// ---------------------------------------------------------------------------
// Wall-clock suite. Everything below measures *host* time with
// std::chrono::steady_clock — the simulated clock plays no part — comparing
// the run-indexed cache paths against faithful replicas of the old
// page-at-a-time algorithms built from the same public API.

// Wall time of one call of `f`, in microseconds.
template <typename F>
double WallMicros(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// Replica of the pre-index FSLEDS_GET: probe the cache for every page of the
// file and merge adjacent equal-level pages.
SledVector NaiveSledsGet(SimKernel& k, uint32_t fs_id, InodeNum ino, FileId fid) {
  FileSystem* fs = k.vfs().FsById(fs_id);
  const int64_t size = fs->SizeOf(ino);
  const int64_t npages = PagesFor(size);
  SledVector sleds;
  for (int64_t page = 0; page < npages; ++page) {
    int level = kMemoryLevel;
    if (!k.cache().Contains({fid, page})) {
      level = k.sleds_table().GlobalLevelOf(fs_id, fs->LevelOf(ino, page)).value();
    }
    const int64_t page_bytes = std::min(kPageSize, size - page * kPageSize);
    if (!sleds.empty() && sleds.back().level == level) {
      sleds.back().length += page_bytes;
      continue;
    }
    const SledsTable::Row& row = k.sleds_table().row(level);
    Sled s;
    s.offset = page * kPageSize;
    s.length = page_bytes;
    s.latency = row.chars.latency.ToSeconds();
    s.bandwidth = row.chars.bandwidth_bps;
    s.level = level;
    sleds.push_back(s);
  }
  return sleds;
}

// Replica of the pre-index readahead planner: extend the run one Contains
// probe at a time.
int64_t NaivePlanRun(const PageCache& cache, FileId fid, int64_t page, int64_t window,
                     int64_t file_pages) {
  int64_t run = 1;
  while (run < window && page + run < file_pages && !cache.Contains({fid, page + run})) {
    ++run;
  }
  return run;
}

int64_t IndexedPlanRun(const PageCache& cache, FileId fid, int64_t page, int64_t window,
                       int64_t file_pages) {
  int64_t run = std::min(window, file_pages - page);
  if (const auto next = cache.NextResidentRun(fid, page + 1); next.has_value()) {
    run = std::min(run, next->first - page);
  }
  return std::max<int64_t>(run, 1);
}

struct MicroResult {
  double naive_us = 0;
  double indexed_us = 0;
  double speedup() const { return indexed_us > 0 ? naive_us / indexed_us : 0; }
};

// Replicas of the scalar row kernels, one value at a time and in order: the
// FITS decode as FitsDecodePixel calls, and HistogramMinMax's and
// HistogramBin's former loops.
void NaiveDecodeRow(const char* in, int bitpix, std::span<double> out) {
  const int64_t elem = ProgElementSize(bitpix);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = FitsDecodePixel(in + static_cast<int64_t>(i) * elem, bitpix);
  }
}

void NaiveMinMax(std::span<const double> values, double* lo, double* hi) {
  for (const double v : values) {
    *lo = std::min(*lo, v);
    *hi = std::max(*hi, v);
  }
}

void NaiveBin(std::span<const double> values, double lo, double width, std::span<int64_t> bins) {
  const int last = static_cast<int>(bins.size()) - 1;
  for (const double v : values) {
    const double q = (v - lo) / width;
    const int bin =
        q > -2147483649.0 && q < 2147483648.0 ? std::clamp(static_cast<int>(q), 0, last) : 0;
    ++bins[static_cast<size_t>(bin)];
  }
}

// Wall time per call of `naive` and `kernel`, each the best of `samples`
// samples of `naive_calls` and `kernel_calls` calls, their samples
// interleaved so that a slow spell of the host meets both. The minimum is
// robust against scheduler noise.
template <typename Naive, typename Kernel>
MicroResult PairedBest(int samples, int naive_calls, int kernel_calls, Naive&& naive,
                       Kernel&& kernel) {
  auto repeated = [](auto&& f, int calls) {
    return [&f, calls] {
      for (int c = 0; c < calls; ++c) {
        f();
      }
    };
  };
  double naive_best = std::numeric_limits<double>::infinity();
  double kernel_best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < samples; ++s) {
    naive_best = std::min(naive_best, WallMicros(repeated(naive, naive_calls)));
    kernel_best = std::min(kernel_best, WallMicros(repeated(kernel, kernel_calls)));
  }
  return {.naive_us = naive_best / naive_calls, .indexed_us = kernel_best / kernel_calls};
}

// Each kernel against its replica over one 16 Ki-pixel run (RunPixels,
// BITPIX -32), after checking that both give the same bits: best of 100
// samples of 16 calls.
constexpr int kRowSamples = 100;
constexpr int kRowCalls = 16;

struct KernelResults {
  MicroResult decode;
  MicroResult minmax;
  MicroResult bin;
};

[[gnu::noinline]] KernelResults MeasureRowKernels() {
  const std::vector<double> pixels = RunPixels();
  std::vector<char> bytes(pixels.size() * 4);
  FitsEncodeRow(pixels, -32, bytes.data());
  std::vector<double> naive_out(pixels.size());
  std::vector<double> out(pixels.size());
  NaiveDecodeRow(bytes.data(), -32, naive_out);
  FitsDecodeRow(bytes.data(), -32, out);
  SLED_CHECK(std::memcmp(naive_out.data(), out.data(), out.size() * sizeof(double)) == 0,
             "row decode mismatch");
  KernelResults r;
  r.decode = PairedBest(
      kRowSamples, kRowCalls, kRowCalls,
      [&] {
        NaiveDecodeRow(bytes.data(), -32, naive_out);
        benchmark::DoNotOptimize(naive_out.data());
        benchmark::ClobberMemory();
      },
      [&] {
        FitsDecodeRow(bytes.data(), -32, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      });

  const double inf = std::numeric_limits<double>::infinity();
  auto min_max = [&](auto&& fold) {
    double lo = inf;
    double hi = -inf;
    fold(std::span<const double>(out), &lo, &hi);
    return std::pair{lo, hi};
  };
  SLED_CHECK(min_max(NaiveMinMax) == min_max(HistogramMinMax), "min/max mismatch");
  r.minmax = PairedBest(kRowSamples, kRowCalls, kRowCalls,
                        [&] { benchmark::DoNotOptimize(min_max(NaiveMinMax)); },
                        [&] { benchmark::DoNotOptimize(min_max(HistogramMinMax)); });

  const auto [lo, hi] = min_max(HistogramMinMax);
  const double width = (hi - lo) / 64;
  std::vector<int64_t> naive_bins(64, 0);
  std::vector<int64_t> bins(64, 0);
  NaiveBin(out, lo, width, naive_bins);
  HistogramBin(out, lo, width, bins);
  SLED_CHECK(naive_bins == bins, "histogram bin mismatch");
  r.bin = PairedBest(
      kRowSamples, kRowCalls, kRowCalls,
      [&] {
        NaiveBin(out, lo, width, naive_bins);
        benchmark::DoNotOptimize(naive_bins.data());
        benchmark::ClobberMemory();
      },
      [&] {
        HistogramBin(out, lo, width, bins);
        benchmark::DoNotOptimize(bins.data());
        benchmark::ClobberMemory();
      });
  return r;
}

// Replica of wc's former count loop: fixed 64-byte blocks that GCC
// vectorizes by itself, each byte's space class computed twice (as a byte
// and as the next byte's predecessor) and both sums folded after every block.
// block[-1] decides whether block[0] starts a word; the first and the last
// partial block go through a 65-byte stage padded with spaces.
constexpr size_t kWcBlock = 64;

void CountWcBlock(const char* block, WcCounts* counts) {
  const char* prev = block - 1;
  uint8_t lines = 0;
  uint8_t starts = 0;
  for (size_t i = 0; i < kWcBlock; ++i) {
    lines += block[i] == '\n';
    starts += IsWcSpace(prev[i]) > IsWcSpace(block[i]);
  }
  counts->lines += lines;
  counts->words += starts;
}

WcCounts BlockWcChunk(std::string_view data, bool in_word) {
  WcCounts counts;
  if (data.empty()) {
    return counts;
  }
  std::array<char, kWcBlock + 1> stage;
  stage.fill(' ');
  stage[0] = in_word ? 'x' : ' ';
  const size_t head = std::min(data.size(), kWcBlock);
  std::memcpy(stage.data() + 1, data.data(), head);
  CountWcBlock(stage.data() + 1, &counts);
  size_t at = head;
  for (; at + kWcBlock <= data.size(); at += kWcBlock) {
    CountWcBlock(data.data() + at, &counts);
  }
  if (at < data.size()) {
    stage.fill(' ');
    stage[0] = data[at - 1];
    std::memcpy(stage.data() + 1, data.data() + at, data.size() - at);
    CountWcBlock(stage.data() + 1, &counts);
  }
  return counts;
}

// wc's count in the apps' 64 KiB chunks, as the mmap and program variants
// run it over the file store in place.
using WcCountFn = WcCounts (*)(std::string_view data, bool in_word);

WcCounts CountInChunks(std::string_view text, WcCountFn count) {
  WcCounts total;
  for (size_t at = 0; at < text.size(); at += kDefaultAppBuffer) {
    const WcCounts c = count(text.substr(at, kDefaultAppBuffer), /*in_word=*/false);
    total.lines += c.lines;
    total.words += c.words;
  }
  return total;
}

// One L2-resident 64 KiB buffer (a read() variant's user buffer) and 64 MiB
// of generator text, the stream the count's prefetch serves.
struct WcInputs {
  std::string buffer;
  std::string stream;
};

WcInputs MakeWcInputs() {
  const std::string text = GeneratedText();
  WcInputs in{.buffer = text.substr(0, kDefaultAppBuffer), .stream = {}};
  in.stream.reserve(64 * text.size());
  for (int copy = 0; copy < 64; ++copy) {
    in.stream += text;
  }
  return in;
}

// `kernel` against `naive`, after checking that both give the same counts:
// over the buffer, best of 100 samples of 16 calls, and over the stream in
// 64 KiB chunks, best of 15 single passes.
struct WcResults {
  MicroResult in_cache;
  MicroResult stream;
};

[[gnu::noinline]] WcResults MeasureWcCount(const WcInputs& in, WcCountFn naive,
                                           WcCountFn kernel) {
  const auto same = [](WcCounts a, WcCounts b) {
    return a.lines == b.lines && a.words == b.words;
  };
  SLED_CHECK(same(naive(in.buffer, false), kernel(in.buffer, false)), "wc count mismatch");
  SLED_CHECK(same(CountInChunks(in.stream, naive), CountInChunks(in.stream, kernel)),
             "wc stream count mismatch");
  WcResults r;
  r.in_cache = PairedBest(
      100, 16, 16, [&] { benchmark::DoNotOptimize(naive(in.buffer, false)); },
      [&] { benchmark::DoNotOptimize(kernel(in.buffer, false)); });
  r.stream = PairedBest(
      15, 1, 1, [&] { benchmark::DoNotOptimize(CountInChunks(in.stream, naive)); },
      [&] { benchmark::DoNotOptimize(CountInChunks(in.stream, kernel)); });
  return r;
}

// Sparse-file FSLEDS_GET: 32768 pages (128 MiB), half resident in 128-page
// stripes — a sparsely cached file whose scan is ~256 runs vs 32768 pages.
// Best of 10 samples of 16 calls: one indexed scan takes about 15 µs.
[[gnu::noinline]] MicroResult MeasureSledsGet() {
  constexpr int64_t kPages = 32768;
  KernelFixture fx(kPages, /*stripe_period=*/256, /*stripe_len=*/128);
  const OpenFile* of = fx.proc->FindFd(fx.fd);
  const uint32_t fs_id = of->fs_id;
  const InodeNum ino = of->ino;
  const FileId fid = of->fid;
  // Sanity: the two scans must agree before timing them.
  const SledVector naive = NaiveSledsGet(*fx.kernel, fs_id, ino, fid);
  const SledVector indexed = fx.kernel->IoctlSledsGet(*fx.proc, fx.fd).value();
  SLED_CHECK(naive.size() == indexed.size(), "sled count mismatch: %zu vs %zu", naive.size(),
             indexed.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    SLED_CHECK(naive[i].offset == indexed[i].offset && naive[i].length == indexed[i].length &&
                   naive[i].level == indexed[i].level,
               "sled %zu mismatch", i);
  }
  return PairedBest(
      10, 16, 16,
      [&] { benchmark::DoNotOptimize(NaiveSledsGet(*fx.kernel, fs_id, ino, fid)); },
      [&] { benchmark::DoNotOptimize(fx.kernel->IoctlSledsGet(*fx.proc, fx.fd).value()); });
}

// Readahead planning across every miss page of a striped cache, best of 15
// samples of 4 sweeps.
[[gnu::noinline]] MicroResult MeasurePlanRun() {
  constexpr int64_t kPages = 1 << 17;
  constexpr int64_t kWindow = 32;
  constexpr FileId kFid = 7;
  PageCache cache({.capacity_pages = kPages});
  for (int64_t page = 0; page < kPages; page += 16) {
    for (int64_t q = page; q < page + 8; ++q) {
      cache.Insert({kFid, q}, false);
    }
  }
  auto sweep = [&](auto&& plan) {
    int64_t total = 0;
    for (int64_t page = 8; page < kPages; page += 16) {
      total += plan(cache, kFid, page, kWindow, kPages);  // pages 8..15 missed
    }
    return total;
  };
  SLED_CHECK(sweep(NaivePlanRun) == sweep(IndexedPlanRun), "plan-run sweep mismatch");
  return PairedBest(15, 4, 4,
                    [&] { benchmark::DoNotOptimize(sweep(NaivePlanRun)); },
                    [&] { benchmark::DoNotOptimize(sweep(IndexedPlanRun)); });
}

// Writeback flush lookup: AllDirtyPages over 100k resident pages with a
// sparse dirty set, vs the old full-cache scan (replicated on a mirror map).
// One AllDirtyPages takes about 2 µs, the replica about 3 ms, so each sample
// times 4 replica calls and 128 indexed ones, which outlast the cache misses
// the replica's pass leaves behind. Best of 10 samples. The replica waits on
// memory and the index on the core, so the ratio still follows the host's
// core speed: with 1024 or 4096 indexed calls it spread wider.
[[gnu::noinline]] MicroResult MeasureAllDirty() {
  constexpr int64_t kFiles = 10;
  constexpr int64_t kPagesPerFile = 10000;
  PageCache cache({.capacity_pages = kFiles * kPagesPerFile});
  std::unordered_map<PageKey, bool, PageKeyHash> mirror;
  for (int64_t f = 1; f <= kFiles; ++f) {
    for (int64_t page = 0; page < kPagesPerFile; ++page) {
      const bool dirty = page % 64 == 0;
      cache.Insert({static_cast<FileId>(f), page}, dirty);
      mirror[{static_cast<FileId>(f), page}] = dirty;
    }
  }
  auto naive_all_dirty = [&] {
    std::vector<PageKey> out;
    for (const auto& [key, dirty] : mirror) {
      if (dirty) {
        out.push_back(key);
      }
    }
    std::sort(out.begin(), out.end(), [](const PageKey& a, const PageKey& b) {
      return a.file != b.file ? a.file < b.file : a.page < b.page;
    });
    return out;
  };
  SLED_CHECK(naive_all_dirty() == cache.AllDirtyPages(), "dirty-set mismatch");
  return PairedBest(10, 4, 128,
                    [&] { benchmark::DoNotOptimize(naive_all_dirty()); },
                    [&] { benchmark::DoNotOptimize(cache.AllDirtyPages()); });
}

// Replica of the syscall hooks before the Observer bound its metric slots:
// the exit builds "syscall." + name and finds it in a string-keyed map, and
// both hooks copy the name into an 88-byte record that owns it, moved into a
// ring that wraps with `%`.
struct OwnedTagRecord {
  TimePoint at;
  TraceKind kind = TraceKind::kSyscallEnter;
  int32_t pid = 0;
  int32_t level = -1;
  uint64_t file = 0;
  int64_t a = 0;
  int64_t b = 0;
  Duration dur;
  std::string tag;
};

class StringKeyedHooks {
 public:
  StringKeyedHooks(const SimClock* clock, size_t capacity) : clock_(clock), capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void SyscallEnter(int pid, std::string_view name) {
    OwnedTagRecord e;
    e.at = clock_->Now();
    e.kind = TraceKind::kSyscallEnter;
    e.pid = pid;
    e.tag = name;
    Push(std::move(e));
  }

  void SyscallExit(int pid, std::string_view name, Duration latency) {
    const std::string key = std::string("syscall.").append(name);
    auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      it = histograms_.emplace(key, LatencyHistogram{}).first;
    }
    it->second.Record(latency);
    OwnedTagRecord e;
    e.at = clock_->Now();
    e.kind = TraceKind::kSyscallExit;
    e.pid = pid;
    e.dur = latency;
    e.tag = name;
    Push(std::move(e));
  }

  const std::map<std::string, LatencyHistogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  void Push(OwnedTagRecord event) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[head_] = std::move(event);
      head_ = (head_ + 1) % capacity_;
    }
  }

  const SimClock* clock_;
  size_t capacity_;
  std::vector<OwnedTagRecord> ring_;
  size_t head_ = 0;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

// The replica against Observer::SyscallEnter/SyscallExit, both with the
// kernel's default 16384-record ring. One call is 1024 enter/exit pairs
// cycling over every syscall kind; both rings are full before timing, so each
// push overwrites a record, as in a long run. Best of 100 samples of 4 calls,
// after checking that both sides count the same latencies per key.
[[gnu::noinline]] MicroResult MeasureSyscallHooks() {
  constexpr int kPairs = 1024;
  constexpr size_t kRing = 16384;
  SimClock clock;
  StringKeyedHooks replica(&clock, kRing);
  Observer obs(&clock, kRing);
  const auto pairs = [](auto&& hooks) {
    for (int i = 0; i < kPairs; ++i) {
      const size_t call = static_cast<size_t>(i) % kSyscallNames.size();
      hooks(call, Nanoseconds(100 + i % 512));
    }
  };
  const auto naive = [&] {
    pairs([&](size_t call, Duration latency) {
      replica.SyscallEnter(1, kSyscallNames[call]);
      replica.SyscallExit(1, kSyscallNames[call], latency);
    });
  };
  const auto bound = [&] {
    pairs([&](size_t call, Duration latency) {
      obs.SyscallEnter(1, static_cast<Syscall>(call));
      obs.SyscallExit(1, static_cast<Syscall>(call), latency);
    });
  };
  for (size_t filled = 0; filled < kRing; filled += 2 * kPairs) {
    naive();
    bound();
  }
  const auto counts = [](const std::map<std::string, LatencyHistogram, std::less<>>& hists) {
    std::map<std::string, int64_t> out;
    for (const auto& [key, h] : hists) {
      out[key] = h.count();
    }
    return out;
  };
  SLED_CHECK(counts(replica.histograms()) == counts(obs.metrics().histograms()),
             "syscall histogram mismatch");
  return PairedBest(100, 4, 4, naive, bound);
}

struct MicroEntry {
  const char* name;
  MicroResult result;
  const char* skipped = nullptr;  // why the entry was not measured on this host
};

void RunWallClockSuite() {
  const MicroResult sleds = MeasureSledsGet();
  const MicroResult plan = MeasurePlanRun();
  const MicroResult dirty = MeasureAllDirty();
  const KernelResults kernels = MeasureRowKernels();
  // The SSE2 body against the former block loop, and the AVX2 body against
  // the SSE2 body, so that each ratio means the same on every host.
  const char* no_avx2 = HostHasAvx2() ? nullptr
                                      : "the host has no AVX2 and POPCNT, so CountWcChunk runs "
                                        "the SSE2 body";
  WcResults wc;
  WcResults wc_avx2;
  {
    const WcInputs in = MakeWcInputs();
    wc = MeasureWcCount(in, BlockWcChunk, CountWcChunkSse2);
    if (no_avx2 == nullptr) {
      wc_avx2 = MeasureWcCount(in, CountWcChunkSse2, CountWcChunkAvx2);
    }
  }
  const MicroResult hooks = MeasureSyscallHooks();
  const MicroEntry entries[] = {{"sleds_get_sparse_32768p", sleds},
                                {"readahead_plan_sweep", plan},
                                {"all_dirty_pages_100k", dirty},
                                {"fits_decode_row_16k", kernels.decode},
                                {"histogram_minmax_16k", kernels.minmax},
                                {"histogram_bin_16k", kernels.bin},
                                {"wc_count_64k", wc.in_cache},
                                {"wc_count_64m", wc.stream},
                                {"wc_count_avx2_64k", wc_avx2.in_cache, no_avx2},
                                {"wc_count_avx2_64m", wc_avx2.stream, no_avx2},
                                {"syscall_hooks", hooks}};
  std::string json = "{";
  for (const MicroEntry& e : entries) {
    char line[256];
    if (e.skipped != nullptr) {
      std::snprintf(line, sizeof(line), "%s\n  \"%s\": {\"skipped\": \"%s\"}",
                    json.size() > 1 ? "," : "", e.name, e.skipped);
    } else {
      std::snprintf(
          line, sizeof(line),
          "%s\n  \"%s\": {\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f}",
          json.size() > 1 ? "," : "", e.name, e.result.naive_us, e.result.indexed_us,
          e.result.speedup());
    }
    json += line;
  }
  json += "\n}";
  PrintBenchMetrics("micro", json);
}

}  // namespace
}  // namespace sled

int main(int argc, char** argv) {
  sled::RunWallClockSuite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
