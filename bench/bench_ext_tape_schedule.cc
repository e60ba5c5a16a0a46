// Extension experiment: locate-aware tape scheduling inside the SLEDs
// library (the Hillyer/Silberschatz & Sandstå/Midstraum line the paper cites
// in §2 as "good candidates to be incorporated into SLEDs libraries").
//
// Part 1: raw scheduling quality — total locate time of N scattered reads on
// one serpentine tape, FIFO vs greedy nearest-neighbour.
// Part 2: end-to-end — HSM batch recall of files interleaved across tapes,
// argument order (one robot exchange per alternation) vs scheduled
// (group-by-tape + locate order).
#include <cstdio>
#include <numeric>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/tape_schedule.h"
#include "src/fs/hsm_fs.h"

namespace sled {
namespace {

void Part1() {
  std::printf("part 1: total locate time, one tape, scattered 8 MB reads\n");
  std::printf("  %-10s %14s %14s %9s\n", "requests", "FIFO", "scheduled", "ratio");
  TapeDeviceConfig config;
  for (int n : {4, 8, 16, 32, 64}) {
    Rng rng(100 + n);
    std::vector<TapeRequest> requests;
    for (int i = 0; i < n; ++i) {
      requests.push_back({rng.Uniform(0, config.capacity_bytes - MiB(16)), MiB(8)});
    }
    std::vector<size_t> fifo(requests.size());
    std::iota(fifo.begin(), fifo.end(), 0);
    const Duration fifo_cost = TotalLocateTime(config, 0, requests, fifo);
    const Duration sched_cost =
        TotalLocateTime(config, 0, requests, ScheduleTapeReads(config, 0, requests));
    std::printf("  %-10d %12.1f s %12.1f s %8.2fx\n", n, fifo_cost.ToSeconds(),
                sched_cost.ToSeconds(), fifo_cost.ToSeconds() / sched_cost.ToSeconds());
  }
}

void Part2() {
  std::printf("\npart 2: HSM batch recall, 16 x 8 MB files interleaved across 4 tapes\n");
  auto build = [] {
    HsmFsConfig config;
    config.staging_disk.capacity_bytes = 4LL * 1000 * 1000 * 1000;
    config.num_tapes = 4;
    config.num_drives = 1;
    auto fs = std::make_unique<HsmFs>("hsm", config);
    std::vector<InodeNum> inos;
    const std::string data(static_cast<size_t>(MiB(8)), 'd');
    for (int i = 0; i < 16; ++i) {
      // Appended piece by piece: GCC 12 at -O3 gives a false -Wrestrict for the
      // inlined operator+(const char*, std::string&&).
      std::string name = "f";
      name += std::to_string(i);
      const InodeNum ino = fs->CreateFile(fs->root(), name).value();
      SLED_CHECK(fs->WriteBytes(ino, 0, std::span<const char>(data.data(), data.size())).ok(),
                 "write failed");
      inos.push_back(ino);
    }
    for (InodeNum ino : inos) {
      SLED_CHECK(fs->Migrate(ino).ok(), "migrate failed");
    }
    return std::make_pair(std::move(fs), inos);
  };
  // Migration spreads files round-robin across tapes, so creation order
  // already alternates tapes maximally — the FIFO worst case.
  auto [fs_fifo, inos1] = build();
  const int64_t fifo_exch_before = fs_fifo->changer().exchanges();
  const Duration fifo = fs_fifo->RecallBatch(inos1, /*scheduled=*/false).value();
  auto [fs_sched, inos2] = build();
  const int64_t sched_exch_before = fs_sched->changer().exchanges();
  const Duration sched = fs_sched->RecallBatch(inos2, /*scheduled=*/true).value();
  std::printf("  argument order: %8.1f s (%lld robot exchanges during recall)\n",
              fifo.ToSeconds(),
              static_cast<long long>(fs_fifo->changer().exchanges() - fifo_exch_before));
  std::printf("  scheduled:      %8.1f s (%lld robot exchanges during recall)\n",
              sched.ToSeconds(),
              static_cast<long long>(fs_sched->changer().exchanges() - sched_exch_before));
  std::printf("  speedup: %.1fx\n", fifo.ToSeconds() / sched.ToSeconds());
}

int Main() {
  std::printf("==== Extension: locate-aware tape scheduling ====\n\n");
  Part1();
  Part2();
  return 0;
}

}  // namespace
}  // namespace sled

int main() { return sled::Main(); }
