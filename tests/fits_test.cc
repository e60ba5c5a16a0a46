// Tests for the FITS mini-library and the ff* element-oriented SLEDs layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/fits/ffsleds.h"
#include "src/fits/fits.h"
#include "src/fs/extent_file_system.h"
#include "src/progs/program.h"

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

TEST(FitsHeaderTest, EncodeParseRoundTrip) {
  FitsHeader h;
  h.bitpix = -32;
  h.naxis = {640, 480};
  const std::string encoded = FitsEncodeHeader(h);
  EXPECT_EQ(encoded.size() % kFitsBlock, 0u);
  auto parsed = FitsParseHeader(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->bitpix, -32);
  EXPECT_EQ(parsed->naxis, (std::vector<int64_t>{640, 480}));
  EXPECT_EQ(parsed->data_offset, static_cast<int64_t>(encoded.size()));
  EXPECT_EQ(parsed->element_size(), 4);
  EXPECT_EQ(parsed->element_count(), 640 * 480);
}

TEST(FitsHeaderTest, SizesAndPadding) {
  FitsHeader h;
  h.bitpix = 16;
  h.naxis = {100, 10};
  EXPECT_EQ(h.data_bytes(), 2000);
  EXPECT_EQ(h.padded_data_bytes(), kFitsBlock);
  h.naxis = {1440, 1};
  EXPECT_EQ(h.data_bytes(), 2880);
  EXPECT_EQ(h.padded_data_bytes(), 2880);
}

TEST(FitsHeaderTest, ParserRejectsMalformed) {
  EXPECT_FALSE(FitsParseHeader("garbage").ok());
  // Valid cards but no END.
  FitsHeader h;
  h.bitpix = 8;
  h.naxis = {4};
  std::string enc = FitsEncodeHeader(h);
  EXPECT_FALSE(FitsParseHeader(enc.substr(0, 160)).ok());
  // Unsupported BITPIX.
  std::string bad = enc;
  const size_t pos = bad.find("BITPIX  =");
  bad.replace(pos, 30, "BITPIX  =                   24");
  EXPECT_FALSE(FitsParseHeader(bad).ok());
  // SIMPLE = F.
  std::string notsimple = enc;
  const size_t spos = notsimple.find("                   T");
  notsimple[spos + 19] = 'F';
  EXPECT_FALSE(FitsParseHeader(notsimple).ok());
  // Data sizes that overflow int64: the axis product times the element size,
  // and the padding to the 2880-byte block plus the header.
  FitsHeader huge;
  huge.bitpix = -64;
  huge.naxis = {int64_t{1} << 62, 4};
  EXPECT_EQ(FitsParseHeader(FitsEncodeHeader(huge)).error(), Err::kInval);
  huge.naxis = {4, int64_t{1} << 62, 0};
  EXPECT_EQ(FitsParseHeader(FitsEncodeHeader(huge)).error(), Err::kInval);
  huge.bitpix = 8;
  huge.naxis = {std::numeric_limits<int64_t>::max() - 100};
  EXPECT_EQ(FitsParseHeader(FitsEncodeHeader(huge)).error(), Err::kInval);
  // Large sizes that do fit still parse.
  huge.naxis = {std::numeric_limits<int64_t>::max() / 2, 1};
  EXPECT_TRUE(FitsParseHeader(FitsEncodeHeader(huge)).ok());
}

TEST(FitsPixelTest, RoundTripAllBitpix) {
  char buf[8];
  for (int bitpix : {8, 16, 32, -32, -64}) {
    for (double v : {0.0, 1.0, 100.0, 127.0}) {
      FitsEncodePixel(v, bitpix, buf);
      EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, bitpix), v) << "bitpix=" << bitpix << " v=" << v;
    }
  }
  // Negative values survive signed integer and float types.
  for (int bitpix : {16, 32, -32, -64}) {
    FitsEncodePixel(-123.0, bitpix, buf);
    EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, bitpix), -123.0);
  }
  // Fractions survive only float types.
  FitsEncodePixel(2.5, -64, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, -64), 2.5);
  FitsEncodePixel(2.5, 16, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 16), 2.0);  // rounds to even
}

TEST(FitsPixelTest, IntegerSaturation) {
  char buf[8];
  FitsEncodePixel(1e9, 16, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 16), 32767.0);
  FitsEncodePixel(-1e9, 16, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 16), -32768.0);
  FitsEncodePixel(300.0, 8, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 8), 255.0);
  FitsEncodePixel(-5.0, 8, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 8), 0.0);
  FitsEncodePixel(std::nan(""), 32, buf);
  EXPECT_DOUBLE_EQ(FitsDecodePixel(buf, 32), 0.0);
}

TEST(FitsPixelTest, BigEndianLayout) {
  char buf[4];
  FitsEncodePixel(1.0, 32, buf);  // 0x00000001 big-endian
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[3], 1);
}

// ---- row codec: FitsDecodeRow / FitsEncodeRow against the per-pixel reference ----

constexpr int kAllBitpix[] = {8, 16, 32, -32, -64};

// Values that stress every conversion: signed zeros, NaNs with payloads,
// infinities, float and double denormals, float overflow, and for the
// integer BITPIXes ties that round to even and values that saturate.
std::vector<double> EdgeValues() {
  using D = std::numeric_limits<double>;
  using F = std::numeric_limits<float>;
  return {0.0, -0.0, D::quiet_NaN(), -D::quiet_NaN(),
          std::bit_cast<double>(uint64_t{0x7ff0000000000001}),  // signalling NaN
          std::bit_cast<double>(uint64_t{0xfff8000000000123}), D::infinity(), -D::infinity(),
          D::denorm_min(), -D::denorm_min(), D::min(), D::max(), -D::max(),
          static_cast<double>(F::denorm_min()), -static_cast<double>(F::denorm_min()),
          static_cast<double>(F::min()), static_cast<double>(F::max()), 3.5e38, -3.5e38, 1e-46,
          0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 127.5, 254.5, 255.5, 256.0, -0.6, -1.0, 32766.5,
          32767.5, 32768.0, -32768.5, -32769.0, 2147483646.5, 2147483647.5, -2147483648.5,
          -2147483649.0, 1e9, -1e9, 1e19, -1e19, 0.1, 100.25};
}

// Doubles with 64-byte alignment, so element offsets 0-7 move the start of
// the double side across a vector boundary.
struct alignas(64) AlignedDoubles {
  double v[8];
};

TEST(FitsRowCodecTest, DecodeRowMatchesPerPixelReferenceBitForBit) {
  std::mt19937_64 gen(17);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 70; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(64 * 1024);
  for (const int bitpix : kAllBitpix) {
    const size_t elem = static_cast<size_t>((bitpix < 0 ? -bitpix : bitpix) / 8);
    // Random bytes reach every bit pattern; the edge values' encodings are
    // spliced in at the front so short rows see them too.
    std::vector<char> bytes((64 * 1024 + 8) * elem);
    for (char& b : bytes) {
      b = static_cast<char>(gen());
    }
    const std::vector<double> edges = EdgeValues();
    for (size_t i = 0; i < edges.size(); ++i) {
      FitsEncodePixel(edges[i], bitpix, bytes.data() + 8 + i * elem);
    }
    std::vector<AlignedDoubles> out((64 * 1024 + 24) / 8);
    for (const size_t n : lengths) {
      for (size_t in_off = 0; in_off < 8; ++in_off) {
        for (size_t out_off = 0; out_off < 8; ++out_off) {
          if (n > 70 && (in_off + out_off) % 7 != 0) {
            continue;  // the long row runs at a spread of offsets, not all 64
          }
          SCOPED_TRACE(testing::Message() << "bitpix " << bitpix << " n " << n << " in_off "
                                          << in_off << " out_off " << out_off);
          double* dst = out[0].v + out_off;
          const double kGuard = 12345.678;
          std::fill(out[0].v, dst + n + 1, kGuard);
          const char* src = bytes.data() + in_off;
          FitsDecodeRow(src, bitpix, std::span<double>(dst, n));
          for (size_t i = 0; i < n; ++i) {
            const double want = FitsDecodePixel(src + i * elem, bitpix);
            ASSERT_EQ(std::memcmp(&dst[i], &want, sizeof(double)), 0) << "element " << i;
          }
          EXPECT_EQ(dst[n], kGuard) << "wrote past the row";
          if (out_off > 0) {
            EXPECT_EQ(dst[-1], kGuard) << "wrote before the row";
          }
        }
      }
    }
  }
}

TEST(FitsRowCodecTest, EncodeRowMatchesPerPixelReferenceByteForByte) {
  std::mt19937_64 gen(23);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 70; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(64 * 1024);
  // Edge values first, then random bit patterns and values spread over each
  // integer type's range and beyond it.
  std::vector<AlignedDoubles> values((64 * 1024 + 24) / 8);
  double* all = values[0].v;
  const std::vector<double> edges = EdgeValues();
  std::copy(edges.begin(), edges.end(), all + 8);
  for (size_t i = 8 + edges.size(); i < values.size() * 8; ++i) {
    switch (i % 4) {
      case 0:
        all[i] = std::bit_cast<double>(gen());
        break;
      case 1:
        all[i] = normal(gen) * 200.0;
        break;
      case 2:
        all[i] = std::round(normal(gen) * 40000.0) + 0.5;  // ties
        break;
      default:
        all[i] = normal(gen) * 3e9;
        break;
    }
  }
  std::vector<char> out(64 * 1024 * 8 + 32);  // 8 + offset + row + 8
  std::vector<char> want(out.size());
  for (const int bitpix : kAllBitpix) {
    const size_t elem = static_cast<size_t>((bitpix < 0 ? -bitpix : bitpix) / 8);
    for (const size_t n : lengths) {
      for (size_t in_off = 0; in_off < 8; ++in_off) {
        for (size_t out_off = 0; out_off < 8; ++out_off) {
          if (n > 70 && (in_off + out_off) % 7 != 0) {
            continue;
          }
          SCOPED_TRACE(testing::Message() << "bitpix " << bitpix << " n " << n << " in_off "
                                          << in_off << " out_off " << out_off);
          const std::span<const double> row(all + in_off, n);
          // The row plus eight guard bytes on each side.
          const size_t span_end = out_off + 8 + n * elem + 8;
          std::fill(out.begin(), out.begin() + span_end, '\x5a');
          std::fill(want.begin(), want.begin() + span_end, '\x5a');
          FitsEncodeRow(row, bitpix, out.data() + 8 + out_off);
          for (size_t i = 0; i < n; ++i) {
            FitsEncodePixel(row[i], bitpix, want.data() + 8 + out_off + i * elem);
          }
          const auto diff = std::mismatch(out.begin(), out.begin() + span_end, want.begin());
          ASSERT_EQ(diff.first - out.begin(), static_cast<std::ptrdiff_t>(span_end))
              << "first differing byte";
        }
      }
    }
  }
}

TEST(FitsIoTest, WriteReadImageRoundTrip) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = -32;
  image.header.naxis = {32, 16};
  Rng rng(5);
  image.pixels.resize(32 * 16);
  for (double& p : image.pixels) {
    p = static_cast<double>(static_cast<float>(rng.Normal(50, 10)));
  }
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/img.fits", image).ok());

  // On-disk size: header block + padded data.
  const auto attr = w.kernel->Stat(*w.proc, "/img.fits").value();
  EXPECT_EQ(attr.size % kFitsBlock, 0);

  auto back = FitsReadImage(*w.kernel, *w.proc, "/img.fits");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header.bitpix, -32);
  EXPECT_EQ(back->header.naxis, image.header.naxis);
  ASSERT_EQ(back->pixels.size(), image.pixels.size());
  for (size_t i = 0; i < image.pixels.size(); ++i) {
    EXPECT_DOUBLE_EQ(back->pixels[i], image.pixels[i]);
  }
}

TEST(FitsIoTest, SizeMismatchRejected) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = 8;
  image.header.naxis = {10};
  image.pixels.resize(5);  // wrong
  EXPECT_EQ(FitsWriteImage(*w.kernel, *w.proc, "/bad.fits", image).error(), Err::kInval);
}

TEST(FfPickerTest, OffersEveryElementExactlyOnce) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = -64;
  image.header.naxis = {256, 64};  // 16k elements * 8B = 128 KiB data
  image.pixels.assign(256 * 64, 1.0);
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/img.fits", image).ok());
  const int fd = w.kernel->Open(*w.proc, "/img.fits").value();
  const FitsHeader header = FitsReadHeader(*w.kernel, *w.proc, fd).value();

  // Touch a middle region so the plan has several segments.
  char b;
  for (int64_t page = 10; page < 20; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  }
  auto picker = FfPicker::Create(*w.kernel, *w.proc, fd, header, 1000).value();
  std::vector<int> seen(static_cast<size_t>(header.element_count()), 0);
  while (true) {
    auto pick = picker->NextRead().value();
    if (pick.count == 0) {
      break;
    }
    ASSERT_LE(pick.count, 1000);
    for (int64_t e = pick.first_element; e < pick.first_element + pick.count; ++e) {
      ASSERT_GE(e, 0);
      ASSERT_LT(e, header.element_count());
      ASSERT_EQ(seen[static_cast<size_t>(e)], 0);
      seen[static_cast<size_t>(e)] = 1;
    }
  }
  for (int v : seen) {
    ASSERT_EQ(v, 1);
  }
}

TEST(FfPickerTest, ByteOffsetMapsThroughHeader) {
  FitsHeader header;
  header.bitpix = -32;
  header.naxis = {8, 8};
  header.data_offset = 2880;
  // Cannot construct FfPicker without a kernel; test the arithmetic helper
  // via a real instance below instead. Here: element size sanity.
  EXPECT_EQ(header.element_size(), 4);
}

TEST(FfSledsCApiTest, PaperWorkflow) {
  World w = MakeWorld();
  FitsImage image;
  image.header.bitpix = -32;
  image.header.naxis = {128, 64};
  image.pixels.assign(128 * 64, 2.0);
  ASSERT_TRUE(FitsWriteImage(*w.kernel, *w.proc, "/img.fits", image).ok());
  const int fd = w.kernel->Open(*w.proc, "/img.fits").value();
  SledsContext ctx{w.kernel.get(), w.proc};

  ASSERT_EQ(ffsleds_pick_init(ctx, fd, 512), 512);
  long first = 0;
  long count = 0;
  int64_t total = 0;
  while (ffsleds_pick_next_read(ctx, fd, &first, &count) == 0 && count > 0) {
    total += count;
  }
  EXPECT_EQ(total, 128 * 64);
  EXPECT_EQ(ffsleds_pick_finish(ctx, fd), 0);
  EXPECT_EQ(ffsleds_pick_finish(ctx, fd), -1);
  EXPECT_EQ(ffsleds_pick_init(ctx, 999, 512), -1);  // bad fd
}

}  // namespace
}  // namespace sled
