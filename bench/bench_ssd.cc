// SSD extension bench: two demonstrations that distribution-valued SLEDs
// carry information the scalar mean cannot.
//
// Part 1 — GC tail: under sustained random writes inside a GC-spike window,
// the read-latency distribution is sharply bimodal. The p99 read latency is
// many multiples of the p50 — exactly the shape the quantile fields of the
// Sled expose and the scalar mean hides.
//
// Part 2 — tail-aware picking: a file striped across an SSD tier (in a GC
// window) and a disk tier — a ReplicatedFs holding one copy per stripe, so
// stripe s lives on tier s % 2. Ranked by mean latency the picker starts on the
// SSD stripes (they look cheap on average) and the first results eat GC
// stalls; ranked by p99 it starts on the disk stripes and the time to the
// first quartile of data drops.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/device/disk_device.h"
#include "src/device/ssd_device.h"
#include "src/kernel/sim_kernel.h"
#include "src/replica/replicated_fs.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

struct GcTailResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double write_amplification = 0.0;
  int64_t gc_cycles = 0;
  int64_t gc_stalls = 0;
};

GcTailResult Part1() {
  std::printf("part 1: read-latency tail under sustained writes in a GC window\n");
  SsdDeviceConfig config;
  config.capacity_bytes = 512LL * kMiB;
  SsdDevice ssd(config);
  SimClock clock;
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{.seed = 41});
  ssd.InjectFaults(plan);
  plan->AttachClock(&clock);
  // A long GC spike: 5% of ops catch a 20 ms foreground stall on top of the
  // organic (capped) GC-debt drains the sustained writes generate.
  plan->AddGcWindow(clock.Now(), clock.Now() + Seconds(1000000), Milliseconds(20), 0.05);

  Rng rng(42);
  std::vector<double> read_ms;
  for (int i = 0; i < 4000; ++i) {
    const int64_t woff = PageFloor(rng.Uniform(0, config.capacity_bytes - 256 * kKiB));
    (void)ssd.Write(woff, 256 * kKiB);
    const int64_t roff = PageFloor(rng.Uniform(0, config.capacity_bytes - kPageSize));
    read_ms.push_back(ssd.Read(roff, kPageSize).value().ToSeconds() * 1e3);
  }
  std::sort(read_ms.begin(), read_ms.end());
  GcTailResult r;
  r.p50_ms = read_ms[read_ms.size() / 2];
  r.p99_ms = read_ms[read_ms.size() * 99 / 100];
  r.write_amplification = ssd.write_amplification();
  r.gc_cycles = ssd.gc_cycles();
  r.gc_stalls = plan->stats().gc_stalls;
  std::printf("  %zu reads: p50 %.3f ms  p99 %.3f ms  (p99/p50 = %.1fx)\n", read_ms.size(),
              r.p50_ms, r.p99_ms, r.p99_ms / r.p50_ms);
  std::printf("  write amplification %.2f, %lld GC cycles, %lld window stalls\n\n",
              r.write_amplification, static_cast<long long>(r.gc_cycles),
              static_cast<long long>(r.gc_stalls));
  return r;
}

struct TieredWorld {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  ReplicatedFs* fs = nullptr;
  int fd = -1;
};

constexpr int64_t kFileBytes = 16LL * kMiB;

TieredWorld MakeTieredWorld() {
  TieredWorld w;
  KernelConfig kc;
  kc.cache.capacity_pages = 256;  // small: the file never fits
  w.kernel = std::make_unique<SimKernel>(kc);
  std::vector<std::unique_ptr<StorageDevice>> tiers;
  tiers.push_back(std::make_unique<SsdDevice>(SsdDeviceConfig{}));
  tiers.push_back(std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  auto fs = std::make_unique<ReplicatedFs>("tiered", std::move(tiers),
                                           ReplicatedFsConfig{.replication_factor = 1});
  w.fs = fs.get();
  SLED_CHECK(w.kernel->Mount("/", std::move(fs)).ok(), "mount failed");
  w.proc = &w.kernel->CreateProcess("bench");
  w.fd = w.kernel->Create(*w.proc, "/mixed.dat").value();
  const std::string data(static_cast<size_t>(kFileBytes), 'd');
  SLED_CHECK(w.kernel->Write(*w.proc, w.fd, std::span<const char>(data.data(), data.size())).ok(),
             "write failed");
  w.kernel->FlushAllDirty();
  w.kernel->DropCaches();
  // The SSD tier enters a GC window: the mean barely moves (duty * stall =
  // 12 ms, still under the disk's ~18 ms positioning) but the p99 balloons.
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{.seed = 43});
  w.fs->replica(0).InjectFaults(plan);
  plan->AttachClock(&w.kernel->clock());
  const TimePoint now = w.kernel->clock().Now();
  plan->AddGcWindow(now, now + Seconds(1000000), Milliseconds(60), 0.2);
  return w;
}

// Simulated seconds until the first `target` bytes arrive in pick order.
double TimeToFirstBytes(RankBy rank_by, int64_t target) {
  TieredWorld w = MakeTieredWorld();
  PickerOptions opts;
  opts.rank_by = rank_by;
  auto picker = SledsPicker::Create(*w.kernel, *w.proc, w.fd, opts).value();
  std::vector<char> buf;
  const TimePoint t0 = w.kernel->clock().Now();
  int64_t delivered = 0;
  while (delivered < target) {
    const auto pick = picker->NextRead().value();
    if (pick.length == 0) {
      break;
    }
    buf.resize(static_cast<size_t>(pick.length));
    (void)w.kernel->Lseek(*w.proc, w.fd, pick.offset, Whence::kSet);
    (void)w.kernel->Read(*w.proc, w.fd, std::span<char>(buf.data(), buf.size()));
    delivered += pick.length;
  }
  return (w.kernel->clock().Now() - t0).ToSeconds();
}

struct RankByResult {
  double mean_ttfr_s = 0.0;
  double p99_ttfr_s = 0.0;
};

RankByResult Part2() {
  std::printf("part 2: time to first quartile, SSD/HDD tiered file, SSD in GC window\n");
  RankByResult r;
  r.mean_ttfr_s = TimeToFirstBytes(RankBy::kMean, kFileBytes / 4);
  r.p99_ttfr_s = TimeToFirstBytes(RankBy::kP99, kFileBytes / 4);
  std::printf("  rank_by=mean  %8.3f s  (starts on the SSD stripes, eats GC stalls)\n",
              r.mean_ttfr_s);
  std::printf("  rank_by=p99   %8.3f s  (defers the SSD tier, %.2fx faster to first data)\n",
              r.p99_ttfr_s, r.mean_ttfr_s / r.p99_ttfr_s);
  return r;
}

int Main() {
  std::printf("==== Extension: SSD GC tail and tail-aware picking ====\n\n");
  const GcTailResult gc = Part1();
  const RankByResult rank = Part2();

  std::string json = "{\n";
  char line[512];
  std::snprintf(line, sizeof(line),
                "  \"gc_tail\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"ratio\": %.2f,\n"
                "              \"write_amplification\": %.3f, \"gc_cycles\": %lld,\n"
                "              \"gc_stalls\": %lld},\n",
                gc.p50_ms, gc.p99_ms, gc.p99_ms / gc.p50_ms, gc.write_amplification,
                static_cast<long long>(gc.gc_cycles), static_cast<long long>(gc.gc_stalls));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"rank_by\": {\"mean_ttfr_s\": %.4f, \"p99_ttfr_s\": %.4f, "
                "\"improvement\": %.2f}\n",
                rank.mean_ttfr_s, rank.p99_ttfr_s, rank.mean_ttfr_s / rank.p99_ttfr_s);
  json += line;
  json += "}";
  PrintBenchMetrics("ssd", json);
  return 0;
}

}  // namespace
}  // namespace sled

int main() { return sled::Main(); }
