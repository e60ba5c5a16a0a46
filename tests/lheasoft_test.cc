// Tests for the LHEASOFT tools (fimhisto, fimgbin) and the element scanner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/apps/fimgbin.h"
#include "src/apps/fimhisto.h"
#include "src/apps/fits_scan.h"
#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/workload/fits_gen.h"

namespace sled {
namespace {

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(int64_t cache_pages = 4096) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

FitsHeader MakeTestImage(World& w, const std::string& path, int bitpix, int64_t side,
                         uint64_t seed) {
  FitsImage image;
  image.header.bitpix = bitpix;
  image.header.naxis = {side, side};
  image.pixels.resize(static_cast<size_t>(side * side));
  Rng rng(seed);
  for (size_t i = 0; i < image.pixels.size(); ++i) {
    image.pixels[i] = std::floor(rng.Normal(100.0, 20.0));
  }
  EXPECT_TRUE(FitsWriteImage(*w.kernel, *w.proc, path, image).ok());
  FitsHeader header = image.header;
  header.data_offset = static_cast<int64_t>(FitsEncodeHeader(header).size());
  return header;
}

TEST(FitsScanTest, SequentialAndSledsSeeSameElements) {
  World w = MakeWorld();
  const FitsHeader header = MakeTestImage(w, "/img.fits", -32, 128, 3);
  const int fd = w.kernel->Open(*w.proc, "/img.fits").value();

  auto collect = [&](bool use_sleds) {
    std::vector<double> values(static_cast<size_t>(header.element_count()), 0.0);
    EXPECT_TRUE(FitsScanElements(*w.kernel, *w.proc, fd, header, use_sleds, 1000, AppCpuCosts{},
                                 [&](int64_t first, std::span<const double> vals) {
                                   for (size_t i = 0; i < vals.size(); ++i) {
                                     values[static_cast<size_t>(first) + i] = vals[i];
                                   }
                                 })
                    .ok());
    return values;
  };
  const auto seq = collect(false);
  const auto via_sleds = collect(true);
  EXPECT_EQ(seq, via_sleds);
  const double sum = std::accumulate(seq.begin(), seq.end(), 0.0);
  EXPECT_NE(sum, 0.0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(FimhistoTest, HistogramIdenticalWithAndWithoutSleds) {
  World w = MakeWorld();
  (void)MakeTestImage(w, "/in.fits", 16, 256, 7);
  FimhistoOptions plain;
  plain.num_bins = 32;
  FimhistoOptions sleds = plain;
  sleds.use_sleds = true;
  const FimhistoResult a =
      FimhistoApp::Run(*w.kernel, *w.proc, "/in.fits", "/out_plain.fits", plain).value();
  const FimhistoResult b =
      FimhistoApp::Run(*w.kernel, *w.proc, "/in.fits", "/out_sleds.fits", sleds).value();
  EXPECT_EQ(a.bins, b.bins);
  EXPECT_DOUBLE_EQ(a.min_value, b.min_value);
  EXPECT_DOUBLE_EQ(a.max_value, b.max_value);
  // All pixels are binned.
  EXPECT_EQ(std::accumulate(a.bins.begin(), a.bins.end(), int64_t{0}), 256 * 256);
}

TEST(FimhistoTest, OutputContainsCopyPlusHistogram) {
  World w = MakeWorld();
  (void)MakeTestImage(w, "/in.fits", -32, 64, 9);
  const FimhistoOptions options;
  ASSERT_TRUE(FimhistoApp::Run(*w.kernel, *w.proc, "/in.fits", "/out.fits", options).ok());
  const int64_t in_size = w.kernel->Stat(*w.proc, "/in.fits").value().size;
  const int64_t out_size = w.kernel->Stat(*w.proc, "/out.fits").value().size;
  EXPECT_GT(out_size, in_size);  // appended extension
  EXPECT_EQ(out_size % kFitsBlock, 0);
  // The copy is byte-identical: the copied image parses to the same header.
  auto out_img = FitsReadImage(*w.kernel, *w.proc, "/out.fits");
  ASSERT_TRUE(out_img.ok());
  EXPECT_EQ(out_img->header.naxis, (std::vector<int64_t>{64, 64}));
}

TEST(FimhistoTest, RejectsBadArguments) {
  World w = MakeWorld();
  (void)MakeTestImage(w, "/in.fits", -32, 32, 1);
  FimhistoOptions bad;
  bad.num_bins = 0;
  EXPECT_EQ(FimhistoApp::Run(*w.kernel, *w.proc, "/in.fits", "/o.fits", bad).error(),
            Err::kInval);
  EXPECT_EQ(
      FimhistoApp::Run(*w.kernel, *w.proc, "/missing.fits", "/o.fits", FimhistoOptions{}).error(),
      Err::kNoEnt);
}

TEST(FimgbinTest, BoxcarAveragesBlocks) {
  World w = MakeWorld();
  // Deterministic image: pixel = x + 10*y over 8x8.
  FitsImage image;
  image.header.bitpix = -64;
  image.header.naxis = {8, 8};
  image.pixels.resize(64);
  for (int64_t y = 0; y < 8; ++y) {
    for (int64_t x = 0; x < 8; ++x) {
      image.pixels[static_cast<size_t>(y * 8 + x)] = static_cast<double>(x + 10 * y);
    }
  }
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/in.fits", image).ok());
  FimgbinOptions options;
  options.boxcar = 2;
  const FimgbinResult r =
      FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/out.fits", options).value();
  EXPECT_EQ(r.out_width, 4);
  EXPECT_EQ(r.out_height, 4);
  auto out = FitsReadImage(*w.kernel, *w.proc, "/out.fits").value();
  ASSERT_EQ(out.pixels.size(), 16u);
  // Top-left 2x2 block of {0,1,10,11} averages to 5.5.
  EXPECT_DOUBLE_EQ(out.pixels[0], 5.5);
  // Block at output (1,1): inputs {2,3,12,13}+... x in {2,3}, y in {2,3}:
  // values 22,23,32,33 -> mean 27.5.
  EXPECT_DOUBLE_EQ(out.pixels[5], 27.5);
}

TEST(FimgbinTest, SledsModeProducesIdenticalOutput) {
  World w = MakeWorld();
  (void)MakeTestImage(w, "/in.fits", -32, 128, 21);
  FimgbinOptions plain;
  plain.boxcar = 4;
  FimgbinOptions sleds = plain;
  sleds.use_sleds = true;
  const FimgbinResult a =
      FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/out_a.fits", plain).value();
  const FimgbinResult b =
      FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/out_b.fits", sleds).value();
  EXPECT_EQ(a.out_width, b.out_width);
  EXPECT_DOUBLE_EQ(a.output_sum, b.output_sum);
  const auto img_a = FitsReadImage(*w.kernel, *w.proc, "/out_a.fits").value();
  const auto img_b = FitsReadImage(*w.kernel, *w.proc, "/out_b.fits").value();
  EXPECT_EQ(img_a.pixels, img_b.pixels);
}

std::string ReadFileBytes(World& w, const std::string& path) {
  const int fd = w.kernel->Open(*w.proc, path).value();
  std::string out(static_cast<size_t>(w.kernel->Fstat(*w.proc, fd).value().size), '\0');
  EXPECT_EQ(w.kernel->Read(*w.proc, fd, std::span<char>(out.data(), out.size())).value(),
            static_cast<int64_t>(out.size()));
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  return out;
}

// Reference fimgbin: each pixel's output cell worked out from its own index,
// over the element runs in the order FitsScanElements delivers them. Returns
// whether some run started mid-row.
bool WriteNaiveFimgbin(World& w, const std::string& input, const std::string& output,
                       const FimgbinOptions& options) {
  const int fd = w.kernel->Open(*w.proc, input).value();
  const FitsHeader header = FitsReadHeader(*w.kernel, *w.proc, fd).value();
  const int64_t in_w = header.naxis[0];
  const int64_t out_w = in_w / options.boxcar;
  const int64_t out_h = header.naxis[1] / options.boxcar;
  std::vector<double> sums(static_cast<size_t>(out_w * out_h), 0.0);
  bool mid_row = false;
  EXPECT_TRUE(FitsScanElements(*w.kernel, *w.proc, fd, header, options.use_sleds,
                               options.buffer_elements, options.costs,
                               [&](int64_t first, std::span<const double> values) {
                                 mid_row |= first % in_w != 0;
                                 for (size_t i = 0; i < values.size(); ++i) {
                                   const int64_t idx = first + static_cast<int64_t>(i);
                                   const int64_t ox = idx % in_w / options.boxcar;
                                   const int64_t oy = idx / in_w / options.boxcar;
                                   sums[static_cast<size_t>(oy * out_w + ox)] += values[i];
                                 }
                               })
                  .ok());
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  FitsImage image;
  image.header.bitpix = header.bitpix;
  image.header.naxis = {out_w, out_h};
  const double scale = 1.0 / (static_cast<double>(options.boxcar) * options.boxcar);
  for (const double sum : sums) {
    image.pixels.push_back(sum * scale);
  }
  EXPECT_TRUE(FitsWriteImage(*w.kernel, *w.proc, output, image).ok());
  return mid_row;
}

// Output bytes equal the per-pixel reference on a non-square image whose
// doubles do not sum exactly, so a wrong cell or a changed addition order
// shows. A cached middle stripe makes SLEDs start with a run in mid-row.
TEST(FimgbinTest, OutputBytesMatchPerPixelReference) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = -64;
  image.header.naxis = {240, 180};
  Rng rng(31);
  for (int64_t i = 0; i < 240 * 180; ++i) {
    image.pixels.push_back(rng.Normal(100.0, 20.0));
  }
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/in.fits", image).ok());
  auto cache_middle_stripe = [&] {
    w.kernel->DropCaches();
    const int fd = w.kernel->Open(*w.proc, "/in.fits").value();
    char b;
    for (int64_t page = 30; page < 50; ++page) {
      ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
      ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
    }
    ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  };
  for (const int boxcar : {2, 3}) {
    for (const bool use_sleds : {false, true}) {
      SCOPED_TRACE(testing::Message() << "boxcar " << boxcar << " sleds " << use_sleds);
      FimgbinOptions options;
      options.boxcar = boxcar;
      options.use_sleds = use_sleds;
      options.buffer_elements = 1000;  // not a multiple of the row width
      cache_middle_stripe();
      ASSERT_TRUE(FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/out.fits", options).ok());
      cache_middle_stripe();
      EXPECT_TRUE(WriteNaiveFimgbin(w, "/in.fits", "/ref.fits", options));
      EXPECT_EQ(ReadFileBytes(w, "/out.fits"), ReadFileBytes(w, "/ref.fits"));
    }
  }
}

// fimgbin's per-pixel stepping loop as it was before FimgbinAccumulate
// replaced it: one division per run, then the output column advances every
// `box` pixels and the output row every `box` input rows.
void SteppingAccumulate(int64_t first, std::span<const double> values, int64_t in_w,
                        int64_t box, std::span<double> sums) {
  const int64_t out_w = in_w / box;
  const int64_t x = first % in_w;
  const int64_t y = first / in_w;
  int64_t x_in_box = x % box;
  int64_t y_in_box = y % box;
  int64_t out_x = x / box;
  int64_t out_row = y / box * out_w;
  for (const double v : values) {
    sums[static_cast<size_t>(out_row + out_x)] += v;
    if (++x_in_box == box) {
      x_in_box = 0;
      if (++out_x == out_w) {
        out_x = 0;
        if (++y_in_box == box) {
          y_in_box = 0;
          out_row += out_w;
        }
      }
    }
  }
}

// FimgbinAccumulate against the stepping loop, bit for bit, over runs that
// start at every x and y offset of the first two rows and over every split of
// the image into two runs, each order. Pixels and starting sums span many
// binades, so a changed addition order changes the bits.
TEST(FimgbinTest, AccumulateMatchesSteppingLoopBitForBit) {
  std::mt19937_64 gen(41);
  std::normal_distribution<double> normal(0.0, 1.0);
  auto spread = [&] { return std::ldexp(normal(gen), static_cast<int>(gen() % 61) - 30); };
  for (int64_t box = 1; box <= 4; ++box) {
    for (const int64_t out_w : {1, 2, 3, 7}) {
      SCOPED_TRACE(testing::Message() << "box " << box << " out_w " << out_w);
      const int64_t in_w = out_w * box;
      const int64_t in_h = 3 * box;
      std::vector<double> pixels(static_cast<size_t>(in_w * in_h));
      std::vector<double> start(static_cast<size_t>(out_w * 3));
      for (double& p : pixels) {
        p = spread();
      }
      for (double& v : start) {
        v = spread();
      }
      // Runs as (first, count) lists, each applied in order to `start`.
      std::vector<std::vector<std::pair<int64_t, int64_t>>> cases;
      const int64_t total = in_w * in_h;
      for (int64_t first = 0; first < std::min(2 * in_w, total); ++first) {
        cases.push_back({{first, total - first}});
        cases.push_back({{first, std::min<int64_t>(box + 1, total - first)}});
      }
      for (int64_t cut = 0; cut <= total; ++cut) {
        cases.push_back({{0, cut}, {cut, total - cut}});
        cases.push_back({{cut, total - cut}, {0, cut}});
      }
      for (const auto& runs : cases) {
        std::vector<double> got = start;
        std::vector<double> want = start;
        for (const auto& [first, count] : runs) {
          const auto run = std::span<const double>(pixels).subspan(static_cast<size_t>(first),
                                                                   static_cast<size_t>(count));
          FimgbinAccumulate(first, run, in_w, box, got);
          SteppingAccumulate(first, run, in_w, box, want);
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
            << "first run at " << runs[0].first << ", " << runs[0].second << " pixels";
      }
    }
  }
}

TEST(FimgbinTest, RejectsIndivisibleDimensions) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = -32;
  image.header.naxis = {10, 10};
  image.pixels.assign(100, 1.0);
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/in.fits", image).ok());
  FimgbinOptions options;
  options.boxcar = 4;  // 10 % 4 != 0
  EXPECT_EQ(FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/o.fits", options).error(),
            Err::kInval);
  options.boxcar = 0;
  EXPECT_EQ(FimgbinApp::Run(*w.kernel, *w.proc, "/in.fits", "/o.fits", options).error(),
            Err::kInval);
}

TEST(FitsGenTest, GeneratesRequestedSize) {
  World w = MakeWorld(16384);
  Rng rng(5);
  const auto header =
      GenerateFitsImage(*w.kernel, *w.proc, "/gen.fits", MiB(4), -32, rng).value();
  const int64_t size = w.kernel->Stat(*w.proc, "/gen.fits").value().size;
  EXPECT_GT(size, MiB(4) * 9 / 10);
  EXPECT_LT(size, MiB(4) * 11 / 10);
  EXPECT_EQ(header.naxis[0] % 4, 0);
  EXPECT_EQ(header.naxis[0], header.naxis[1]);
}

}  // namespace
}  // namespace sled
