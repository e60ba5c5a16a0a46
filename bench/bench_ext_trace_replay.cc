// Extension experiment: trace-driven device sensitivity. Capture one linear
// scan's I/O trace, then replay it — verbatim and SLEDs-reordered — against
// every storage kind with a warm (tail-cached) file. This is the
// "scripts and other utilities built around this concept" from the paper's
// conclusion: the access pattern is fixed once; SLEDs adapt it to whatever
// storage it lands on.
#include <cstdio>

#include "src/common/units.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"
#include "src/workload/trace.h"

namespace sled {
namespace {

constexpr int64_t kFileMb = 60;

Trace CaptureScan() {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 90);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(90);
  SLED_CHECK(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(kFileMb), rng).ok(),
             "gen failed");
  Process& p = tb.kernel->CreateProcess("capture");
  TraceRecorder rec(*tb.kernel, p);
  const int fd = rec.Open("/data/f.txt").value();
  std::vector<char> buf(static_cast<size_t>(64 * kKiB));
  while (rec.Read(fd, std::span<char>(buf.data(), buf.size())).value() > 0) {
  }
  SLED_CHECK(rec.Close(fd).ok(), "close failed");
  return rec.TakeTrace();
}

int Main() {
  std::printf("==== Extension: trace-driven replay across devices ====\n\n");
  const Trace trace = CaptureScan();
  const TraceStats stats = SummarizeTrace(trace);
  std::printf("captured trace: %lld events, %lld MB read\n\n",
              static_cast<long long>(stats.events),
              static_cast<long long>(stats.bytes_read / kMiB));
  std::printf("%-8s %14s %14s %9s\n", "device", "verbatim", "SLEDs-reordered", "ratio");
  for (StorageKind kind : {StorageKind::kDisk, StorageKind::kCdRom, StorageKind::kNfs}) {
    double seconds[2] = {0, 0};
    for (bool reorder : {false, true}) {
      Testbed tb = MakeUnixTestbed(kind, reorder ? 91 : 92);
      Process& gen = tb.kernel->CreateProcess("gen");
      Rng rng(93);
      SLED_CHECK(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(kFileMb), rng).ok(),
                 "gen failed");
      tb.FinishMastering();
      tb.kernel->DropCaches();
      // Warm pass (verbatim) to put the system in the Figure 3 state.
      SLED_CHECK(ReplayTrace(*tb.kernel, trace).ok(), "warm replay failed");
      ReplayOptions options;
      options.reorder_reads_with_sleds = reorder;
      auto r = ReplayTrace(*tb.kernel, trace, options);
      SLED_CHECK(r.ok(), "replay failed");
      seconds[reorder ? 1 : 0] = r->elapsed.ToSeconds();
    }
    std::printf("%-8s %12.2f s %12.2f s %8.2fx\n",
                std::string(StorageKindName(kind)).c_str(), seconds[0], seconds[1],
                seconds[0] / seconds[1]);
  }
  std::printf(
      "\nOne recorded access pattern, three devices: the SLEDs re-plan converts\n"
      "the same workload to cached-first order everywhere, with the gain scaling\n"
      "by the device's cost of refetching the evicted portion.\n");
  return 0;
}

}  // namespace
}  // namespace sled

int main() { return sled::Main(); }
