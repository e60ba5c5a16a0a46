// Extension experiment: how good are the estimates? The whole premise of
// §3.3 (reporting latency to users) is that sleds_total_delivery_time is
// trustworthy *before* any data moves. Two checks:
//
// Part 1 — estimate vs measured full-file retrieval across devices and
// random cache states (the retrieval loop is a bare picker walk, so the
// comparison isolates the storage model from application CPU).
//
// Part 2 — the paper's §4.1 single-entry-per-device limitation: "for better
// accuracy, entries which account for the different bandwidths of different
// disk zones will be added in a future version [Van97]". We built that
// version: per-zone sleds_table rows. A file on the slow inner zone is
// mispredicted by the single-entry table and predicted correctly by the
// per-zone one.
// Part 3 — raw device-model fidelity: for each device, the mean absolute
// percentage error (MAPE) of Estimate() against the access it prices, over a
// random single-op workload. Deterministic models score 0; stochastic models
// score their irreducible spread (the estimate is the mean, see the
// "Estimate is the expectation of the access" contract in device.h). The MAPE
// table is emitted as BENCH_estimate_accuracy.json and gated by
// scripts/perf_gate.py --accuracy against bench/baselines.json.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/device/cdrom_device.h"
#include "src/device/disk_device.h"
#include "src/device/memory_device.h"
#include "src/device/network_device.h"
#include "src/device/ssd_device.h"
#include "src/device/tape_device.h"
#include "src/fs/extent_file_system.h"
#include "src/sleds/delivery.h"
#include "src/sleds/picker.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

// Read the whole file in picker order; return measured elapsed.
Duration MeasurePickerRead(SimKernel& kernel, int fd, Process& p) {
  auto picker = SledsPicker::Create(kernel, p, fd, PickerOptions{}).value();
  std::vector<char> buf(static_cast<size_t>(64 * kKiB));
  const TimePoint t0 = kernel.clock().Now();
  while (true) {
    auto pick = picker->NextRead().value();
    if (pick.length == 0) {
      break;
    }
    (void)kernel.Lseek(p, fd, pick.offset, Whence::kSet);
    (void)kernel.Read(p, fd, std::span<char>(buf.data(), static_cast<size_t>(pick.length)));
  }
  return kernel.clock().Now() - t0;
}

// device name -> est/meas ratio for the end-to-end retrievals of part 1.
std::map<std::string, double> Part1() {
  std::map<std::string, double> ratios;
  std::printf("part 1: estimate vs measured, 24 MB file, random cache states\n");
  std::printf("  %-8s %12s %12s %9s\n", "device", "estimate", "measured", "est/meas");
  for (StorageKind kind : {StorageKind::kDisk, StorageKind::kCdRom, StorageKind::kNfs}) {
    double est_sum = 0.0;
    double meas_sum = 0.0;
    for (int trial = 0; trial < 4; ++trial) {
      Testbed tb = MakeUnixTestbed(kind, 700 + trial);
      Process& gen = tb.kernel->CreateProcess("gen");
      Rng rng(700 + trial);
      SLED_CHECK(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(24), rng).ok(),
                 "gen failed");
      tb.FinishMastering();
      tb.kernel->DropCaches();
      Process& p = tb.kernel->CreateProcess("reader");
      const int fd = tb.kernel->Open(p, "/data/f.txt").value();
      // Random cache state: touch a few random page ranges.
      char b;
      for (int r = 0; r < 3; ++r) {
        const int64_t first = rng.Uniform(0, PagesFor(MiB(24)) - 1);
        for (int64_t page = first; page < std::min(first + rng.Uniform(64, 512),
                                                   PagesFor(MiB(24)));
             ++page) {
          (void)tb.kernel->Lseek(p, fd, page * kPageSize, Whence::kSet);
          (void)tb.kernel->Read(p, fd, std::span<char>(&b, 1));
        }
      }
      const Duration estimate =
          TotalDeliveryTime(*tb.kernel, p, fd, AttackPlan::kBest).value();
      const Duration measured = MeasurePickerRead(*tb.kernel, fd, p);
      (void)tb.kernel->Close(p, fd);
      est_sum += estimate.ToSeconds();
      meas_sum += measured.ToSeconds();
    }
    std::printf("  %-8s %10.2f s %10.2f s %9.2f\n",
                std::string(StorageKindName(kind)).c_str(), est_sum / 4, meas_sum / 4,
                est_sum / meas_sum);
    ratios[std::string(StorageKindName(kind))] = est_sum / meas_sum;
  }
  std::printf(
      "  (estimates slightly undershoot: they exclude syscall and memory-copy\n"
      "   time, exactly like the paper's latency+size/bandwidth formula)\n\n");
  return ratios;
}

void Part2() {
  std::printf("part 2: single-entry vs per-zone sleds_table (%s)\n",
              "file on the slow inner zone of a 512 MB, 8-zone disk");
  std::printf("  %-22s %12s %12s %9s\n", "table", "estimate", "measured", "est/meas");
  for (bool per_zone : {false, true}) {
    KernelConfig kc;
    kc.cache.capacity_pages = 2048;
    SimKernel kernel(kc);
    DiskDeviceConfig dc;
    dc.capacity_bytes = 512LL * kMiB;
    dc.num_zones = 8;
    dc.outer_bandwidth_bps = 12.0e6;  // exaggerate the zone spread
    dc.inner_bandwidth_bps = 5.0e6;
    SLED_CHECK(kernel
                   .Mount("/", std::make_unique<ExtFs>("disk",
                                                       std::make_unique<DiskDevice>(dc),
                                                       ExtentAllocatorConfig{}, per_zone))
                   .ok(),
               "mount failed");
    Process& p = kernel.CreateProcess("user");
    // Ballast fills the outer 7 zones; the test file lands on the innermost.
    const int bfd = kernel.Create(p, "/ballast").value();
    SLED_CHECK(kernel.Ftruncate(p, bfd, 7 * (512LL * kMiB / 8)).ok(), "ballast failed");
    (void)kernel.Close(p, bfd);
    const int fd = kernel.Create(p, "/inner.dat").value();
    const std::string data(static_cast<size_t>(MiB(24)), 'i');
    SLED_CHECK(kernel.Write(p, fd, std::span<const char>(data.data(), data.size())).ok(),
               "write failed");
    kernel.DropCaches();
    const Duration estimate = TotalDeliveryTime(kernel, p, fd, AttackPlan::kBest).value();
    const Duration measured = MeasurePickerRead(kernel, fd, p);
    (void)kernel.Close(p, fd);
    std::printf("  %-22s %10.2f s %10.2f s %9.2f\n",
                per_zone ? "per-zone (Van97)" : "single entry (paper)",
                estimate.ToSeconds(), measured.ToSeconds(),
                estimate.ToSeconds() / measured.ToSeconds());
  }
  std::printf(
      "\nThe single-entry table prices every byte at the device average and\n"
      "underestimates inner-zone files; the per-zone table prices the zone the\n"
      "data actually occupies.\n");
}

// Mean absolute percentage error of Estimate against the
// access it priced, over `n` random ops. `write_frac` mixes writes in (the
// SSD's GC debt only moves under writes). `est_bias_s` is subtracted from
// every estimate; passing the device's per-request overhead recreates the
// pre-fix estimator (which forgot that term) on identical draws.
double DeviceMape(StorageDevice& dev, uint64_t seed, double write_frac, int n = 300,
                  double est_bias_s = 0.0) {
  Rng rng(seed);
  const int64_t len = 64 * kKiB;
  double sum = 0.0;
  int64_t pos = 0;
  for (int i = 0; i < n; ++i) {
    // Alternate sequential continuation and random jump: real retrievals are
    // mostly streaming with occasional repositions, and the deterministic
    // per-op terms (overhead, transfer) dominate the sequential half.
    const int64_t off =
        i % 2 == 0 ? std::min(pos, dev.capacity_bytes() - len)
                   : PageFloor(rng.Uniform(0, dev.capacity_bytes() - len));
    const bool writing = rng.Bernoulli(write_frac);
    const double est = dev.Estimate(off, len, writing).ToSeconds() - est_bias_s;
    const double meas =
        (writing ? dev.Write(off, len) : dev.Read(off, len)).value().ToSeconds();
    sum += std::abs(meas - est) / meas;
    pos = off + len;
  }
  return sum / n;
}

// name -> MAPE for every device model, random 64 KiB ops. For disk and nfs
// the pre-fix estimator (missing per_request_overhead) is replayed on the
// same draws under the "<name>_prefix" key to quantify the fix.
std::map<std::string, double> Part3() {
  std::printf("\npart 3: raw device-model MAPE, 300 64 KiB ops, sequential/random mix\n");
  std::printf("  %-8s %8s %10s   %s\n", "device", "MAPE", "(pre-fix)", "irreducible term");
  std::map<std::string, double> mape;
  auto row = [&](const char* name, double m, double prefix, const char* note) {
    mape[name] = m;
    if (prefix > 0.0) {
      mape[std::string(name) + "_prefix"] = prefix;
      std::printf("  %-8s %7.2f%% %9.2f%%   %s\n", name, m * 100.0, prefix * 100.0, note);
    } else {
      std::printf("  %-8s %7.2f%% %9s   %s\n", name, m * 100.0, "-", note);
    }
  };
  MemoryDevice memory(MemoryDeviceConfig{});
  row("memory", DeviceMape(memory, 31, 0.0), 0.0, "none (deterministic)");
  DiskDeviceConfig disk_config;
  DiskDevice disk(disk_config);
  DiskDevice disk_replay(disk_config);
  row("disk", DeviceMape(disk, 32, 0.0),
      DeviceMape(disk_replay, 32, 0.0, 300, disk_config.per_request_overhead.ToSeconds()),
      "rotational delay, uniform [0, period)");
  CdRomDevice cdrom(CdRomDeviceConfig{});
  row("cdrom", DeviceMape(cdrom, 33, 0.0), 0.0, "settle jitter, +/-10% of the seek");
  NetworkDeviceConfig nfs_config;
  NetworkDevice nfs(nfs_config);
  NetworkDevice nfs_replay(nfs_config);
  row("nfs", DeviceMape(nfs, 34, 0.0),
      DeviceMape(nfs_replay, 34, 0.0, 300, nfs_config.per_request_overhead.ToSeconds()),
      "latency jitter, +/-15% of first byte");
  SsdDeviceConfig sc;
  sc.capacity_bytes = 256LL * kMiB;  // small: GC debt in play quickly
  SsdDevice ssd(sc);
  row("ssd", DeviceMape(ssd, 35, 0.5), 0.0, "none (GC debt is priced exactly)");
  TapeDevice tape(TapeDeviceConfig{});
  row("tape", DeviceMape(tape, 36, 0.0, 60), 0.0, "none (locate arithmetic)");
  std::printf(
      "  (stochastic models carry their irreducible spread; the estimate is\n"
      "   the mean, so the signed error averages out even where MAPE > 0)\n");
  return mape;
}

int Main() {
  std::printf("==== Extension: delivery-estimate accuracy ====\n\n");
  const std::map<std::string, double> ratios = Part1();
  Part2();
  const std::map<std::string, double> mape = Part3();

  // Machine-readable block for the accuracy gate (perf_gate.py --accuracy):
  // every workload with an "error" field is gated lower-is-better against
  // bench/baselines.json. The "*_prefix" entries replay the pre-fix
  // estimator (per_request_overhead missing) on identical draws; they are
  // emitted as ungated "reference" values recording the improvement.
  std::vector<std::string> entries;
  char line[160];
  for (const auto& [name, m] : mape) {
    const bool reference = name.size() > 7 && name.rfind("_prefix") == name.size() - 7;
    std::snprintf(line, sizeof(line), "  \"mape_%s\": {\"%s\": %.6f}", name.c_str(),
                  reference ? "reference" : "error", m);
    entries.emplace_back(line);
  }
  for (const auto& [name, r] : ratios) {
    std::snprintf(line, sizeof(line), "  \"bias_%s\": {\"error\": %.6f}", name.c_str(),
                  std::abs(1.0 - r));
    entries.emplace_back(line);
  }
  std::string json = "{\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    json += entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
  }
  json += "}";
  PrintBenchMetrics("estimate_accuracy", json);
  return 0;
}

}  // namespace
}  // namespace sled

int main() { return sled::Main(); }
