// Extension experiment: SLEDs on a hierarchical storage manager — the
// scenario the paper's introduction motivates ("gains may be much greater
// with HSM systems") but could not measure. A library of files is spread
// across staging disk, a mounted tape, and offline tapes; we compare:
//
//   1. find -latency pruning: restrict a search to files retrievable within
//      a bound, without touching tape (paper §4.3: "users may wish to ignore
//      all tape-resident data, or to read data from a tape currently mounted
//      on a drive, but ignore those that would require mounting a new tape").
//   2. grep -q across the library with and without SLEDs-guided ordering of
//      the file list (cheapest files first), the file-set analogue of
//      reordering.
#include <algorithm>
#include <cstdio>

#include "src/apps/find.h"
#include "src/apps/grep.h"
#include "src/common/units.h"
#include "src/sleds/delivery.h"
#include "src/workload/experiment.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

struct Library {
  Testbed tb;
  std::vector<std::string> paths;
  std::string needle_path;  // where the match lives (a tape-near file)
};

Library BuildLibrary() {
  Library lib;
  lib.tb = MakeHsmTestbed(/*seed=*/77);
  auto* hsm = dynamic_cast<HsmFs*>(lib.tb.kernel->vfs().FsById(lib.tb.data_fs_id));
  SLED_CHECK(hsm != nullptr, "hsm testbed has no HsmFs");
  Process& gen = lib.tb.kernel->CreateProcess("gen");
  Rng rng(77);

  // 12 files of 16 MB: 4 staged on disk, 8 migrated to tape.
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/data/obs" + std::to_string(i) + ".txt";
    SLED_CHECK(GenerateTextFile(*lib.tb.kernel, gen, path, MiB(16), rng).ok(), "gen failed");
    lib.paths.push_back(path);
  }
  for (int i = 4; i < 12; ++i) {
    const InodeNum ino = lib.tb.kernel->vfs().Resolve(lib.paths[i]).value().ino;
    SLED_CHECK(hsm->Migrate(ino).ok(), "migrate failed");
  }
  // Put the needle in a migrated file, then touch that file's tape so it is
  // the mounted one ("tape-near").
  lib.needle_path = lib.paths[6];
  // Marker placement needs the file staged: recall, mark, re-migrate.
  {
    const InodeNum ino = lib.tb.kernel->vfs().Resolve(lib.needle_path).value().ino;
    SLED_CHECK(hsm->Recall(ino).ok(), "recall failed");
    SLED_CHECK(PlaceMarker(*lib.tb.kernel, gen, lib.needle_path, MiB(8)).ok(), "marker failed");
    SLED_CHECK(hsm->Migrate(ino).ok(), "re-migrate failed");
  }
  lib.tb.kernel->DropCaches();
  return lib;
}

int Main() {
  std::printf("==== HSM extension: find -latency pruning and SLEDs-ordered search ====\n\n");
  Library lib = BuildLibrary();
  SimKernel& kernel = *lib.tb.kernel;

  // --- Part 1: find -latency ---
  Process& finder = kernel.CreateProcess("find");
  FindOptions all;
  const FindResult everything = FindApp::Run(kernel, finder, "/data", all).value();
  FindOptions cheap;
  cheap.latency = ParseLatencyPredicate("-5").value();  // < 5 s: no robot work
  const FindResult fast = FindApp::Run(kernel, finder, "/data", cheap).value();
  FindOptions expensive;
  expensive.latency = ParseLatencyPredicate("+60").value();  // needs mount+locate
  const FindResult slow = FindApp::Run(kernel, finder, "/data", expensive).value();
  std::printf("find /data                      -> %zu files\n", everything.paths.size());
  std::printf("find /data -latency -5          -> %zu files (pruned %lld tape-resident)\n",
              fast.paths.size(), static_cast<long long>(fast.files_pruned_by_latency));
  std::printf("find /data -latency +60         -> %zu files (offline tapes only)\n\n",
              slow.paths.size());

  // --- Part 2: search the library for the needle ---
  auto search = [](Library& l, bool sleds_order) -> Duration {
    SimKernel& k = *l.tb.kernel;
    Process& p = k.CreateProcess(sleds_order ? "search-sleds" : "search");
    std::vector<std::string> order = l.paths;
    if (sleds_order) {
      // Steere-style file-set ordering by estimated delivery time: ask the
      // SLEDs of each file (metadata only, no data I/O) and sort.
      std::vector<std::pair<double, std::string>> keyed;
      for (const std::string& path : order) {
        const int fd = k.Open(p, path).value();
        const Duration est = TotalDeliveryTime(k, p, fd, AttackPlan::kBest).value();
        (void)k.Close(p, fd);
        keyed.emplace_back(est.ToSeconds(), path);
      }
      std::sort(keyed.begin(), keyed.end());
      order.clear();
      for (auto& [cost, path] : keyed) {
        order.push_back(path);
      }
    }
    const TimePoint t0 = k.clock().Now();
    for (const std::string& path : order) {
      GrepOptions options;
      options.quiet_first_match = true;
      options.use_sleds = sleds_order;
      auto r = GrepApp::Run(k, p, path, std::string(kGrepMarker), options);
      if (r.ok() && r->found) {
        break;
      }
    }
    return k.clock().Now() - t0;
  };

  // Warm state: the needle file's tape is offline; several disk files are
  // staged. Without SLEDs the walk order is directory order, recalling every
  // offline file it meets before the needle; with SLEDs ordering, all cheap
  // files are eliminated first and only then does the search pay for tape.
  const Duration with = search(lib, true);
  // Rebuild to reset HSM/tape state perturbed by the first search.
  lib = BuildLibrary();
  const Duration without = search(lib, false);
  std::printf("grep -q across library, SLEDs-ordered:    %10.1f s\n", with.ToSeconds());
  std::printf("grep -q across library, directory order:  %10.1f s\n", without.ToSeconds());
  std::printf("speedup: %.1fx (tape mounts avoided by ordering cheap files first)\n",
              without.ToSeconds() / std::max(with.ToSeconds(), 1e-9));
  return 0;
}

}  // namespace
}  // namespace sled

int main() { return sled::Main(); }
