#include "probes.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/apps/grep.h"
#include "src/common/log.h"
#include "src/common/units.h"
#include "src/fits/fits.h"
#include "src/workload/text_gen.h"

namespace perfbench {
namespace {

constexpr int64_t kProbeReadBytes = 64 * sled::kKiB;
constexpr int kProbeRanges = 32;
constexpr int kLseekCalls = 20000;
constexpr int kPickerRepeats = 5;
constexpr int kScanRepeats = 4;
constexpr int64_t kScanBytes = 8 * sled::kMiB;

// Keeps a computed value alive so the timed loop is not optimised away.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double NsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns); }

}  // namespace

ProbeResults RunProbes(sled::SimKernel& kernel, const ProbeSpec& spec) {
  ProbeResults r;
  sled::Process& p = kernel.CreateProcess("probe");
  auto fd_or = kernel.Open(p, spec.path);
  SLED_CHECK(fd_or.ok(), "probe: open %s failed", spec.path.c_str());
  const int fd = fd_or.value();
  auto attr = kernel.Fstat(p, fd);
  SLED_CHECK(attr.ok(), "probe: fstat failed");
  const int64_t size = attr->size;

  // SledsPicker::Create, then NextRead until the plan is drained, against
  // the cache state the timed ops left.
  {
    std::vector<double> create_us;
    double drain_ns = 0;
    int64_t picks = 0;
    for (int rep = 0; rep < kPickerRepeats; ++rep) {
      const int64_t t0 = NowNs();
      auto picker = sled::SledsPicker::Create(kernel, p, fd, spec.picker);
      create_us.push_back(NsSince(t0) * 1e-3);
      SLED_CHECK(picker.ok(), "probe: picker create failed");
      r.plan_sections = static_cast<int64_t>(picker.value()->plan().size());
      const int64_t t1 = NowNs();
      for (;;) {
        auto pick = picker.value()->NextRead();
        SLED_CHECK(pick.ok(), "probe: NextRead failed");
        ++picks;
        if (pick->length == 0) {
          break;
        }
      }
      drain_ns += NsSince(t1);
    }
    r.picker_create_us = Quantile(create_us, 0.5);
    r.picker_next_read_ns = drain_ns / static_cast<double>(picks);
  }

  // Lseek crosses the syscall boundary and fires the observer hooks, and
  // does nothing else.
  {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kLseekCalls; ++i) {
      auto pos = kernel.Lseek(p, fd, (static_cast<int64_t>(i) * sled::kPageSize) % size,
                              sled::Whence::kSet);
      Sink(pos);
    }
    r.lseek_ns = NsSince(t0) / kLseekCalls;
  }

  // The workload's own bytes, for the pure-function probes.
  std::vector<char> bytes(static_cast<size_t>(std::min(size, kScanBytes)));
  {
    SLED_CHECK(kernel.Lseek(p, fd, 0, sled::Whence::kSet).ok(), "probe: lseek failed");
    int64_t got = 0;
    while (got < static_cast<int64_t>(bytes.size())) {
      auto n = kernel.Read(p, fd, std::span<char>(bytes.data() + got, bytes.size() - got));
      SLED_CHECK(n.ok() && n.value() > 0, "probe: read failed");
      got += n.value();
    }
  }
  {
    const std::string_view hay(bytes.data(), bytes.size());
    const int64_t t0 = NowNs();
    for (int rep = 0; rep < kScanRepeats; ++rep) {
      auto hits = sled::HorspoolSearchAll(hay, sled::kGrepMarker);
      Sink(hits);
    }
    r.horspool_ns_per_byte = NsSince(t0) / (kScanRepeats * static_cast<double>(hay.size()));
  }
  {
    const int64_t first = std::min<int64_t>(spec.data_offset, static_cast<int64_t>(bytes.size()));
    const int64_t pixels = (static_cast<int64_t>(bytes.size()) - first) / 4;
    double sum = 0;
    const int64_t t0 = NowNs();
    for (int rep = 0; rep < kScanRepeats; ++rep) {
      for (int64_t i = 0; i < pixels; ++i) {
        sum += sled::FitsDecodePixel(bytes.data() + first + i * 4, -32);
      }
      Sink(sum);
    }
    r.decode_ns_per_pixel =
        pixels > 0 ? NsSince(t0) / (kScanRepeats * static_cast<double>(pixels)) : 0;
  }

  // 64 KiB reads of ranges spread over the file: cold after DropCaches, then
  // the same ranges again once resident.
  {
    const int64_t stride =
        std::max<int64_t>(kProbeReadBytes, (size / kProbeRanges) / sled::kPageSize * sled::kPageSize);
    std::vector<int64_t> offsets;
    for (int64_t off = 0; off + kProbeReadBytes <= size && offsets.size() < kProbeRanges;
         off += stride) {
      offsets.push_back(off);
    }
    std::vector<char> buf(static_cast<size_t>(kProbeReadBytes));
    auto timed_reads = [&]() {
      double ns = 0;
      for (int64_t off : offsets) {
        SLED_CHECK(kernel.Lseek(p, fd, off, sled::Whence::kSet).ok(), "probe: lseek failed");
        const int64_t t0 = NowNs();
        auto n = kernel.Read(p, fd, std::span<char>(buf.data(), buf.size()));
        ns += NsSince(t0);
        SLED_CHECK(n.ok(), "probe: read failed");
      }
      return ns;
    };
    const double pages =
        static_cast<double>(offsets.size()) * (kProbeReadBytes / sled::kPageSize);
    kernel.DropCaches();
    r.read_miss_ns_per_page = timed_reads() / pages;
    double hit_ns = 0;
    for (int rep = 0; rep < kScanRepeats; ++rep) {
      hit_ns += timed_reads();
    }
    r.read_hit_ns_per_page = hit_ns / (kScanRepeats * pages);
  }

  SLED_CHECK(kernel.Close(p, fd).ok(), "probe: close failed");
  return r;
}

}  // namespace perfbench
