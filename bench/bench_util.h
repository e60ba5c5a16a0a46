// Shared machinery for the figure/table reproduction binaries: environment
// scaling knobs, the standard sweep loop (sizes x {with,without} x warm-cache
// repeats), and paper-style output (rows plus an ASCII rendering of the
// figure).
//
// Environment knobs (full paper parameters by default):
//   SLEDS_BENCH_REPEATS  runs per point after the discarded warm-up (12)
//   SLEDS_BENCH_MAX_MB   truncate the file-size sweep (128)
//   SLEDS_BENCH_STEP_MB  stride of the size sweep (8)
#ifndef SLEDS_BENCH_BENCH_UTIL_H_
#define SLEDS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/ascii_plot.h"
#include "src/common/stats.h"
#include "src/workload/experiment.h"
#include "src/workload/testbed.h"

namespace sled {

struct BenchParams {
  int repeats = kPaperRepeats;
  std::vector<int64_t> sizes;

  static BenchParams FromEnv(std::vector<int64_t> default_sizes);
};

// Per-(size, mode) preparation: create the data file(s) on a fresh testbed
// and return an optional per-run setup hook (e.g. moving grep's marker).
using PrepareFn = std::function<std::function<void(SimKernel&, Process&, Rng&)>(
    Testbed& tb, int64_t size, Rng& rng)>;

// One application run; `use_sleds` selects the mode under test.
using AppRunnerFn = std::function<void(SimKernel&, Process&, bool use_sleds)>;

struct SweepResult {
  std::vector<SeriesPoint> time_points;   // x = MB, y = seconds
  std::vector<SeriesPoint> fault_points;  // x = MB, y = page faults
  // Metrics JSON (Observer::MetricsJson) from the last testbed of the sweep:
  // the largest size, SLEDs mode. Deterministic for a fixed sweep.
  std::string metrics_json;
};

// The standard experiment: for each size and each mode, build a fresh
// testbed, prepare the workload, discard one warm-up run, then measure
// `repeats` runs in the same mode. After each size, stderr gets the host wall
// time spent preparing (testbed and input generation) and running, both
// modes together.
SweepResult RunFigureSweep(const std::function<Testbed(uint64_t seed)>& make_testbed,
                           const PrepareFn& prepare, const AppRunnerFn& run,
                           const BenchParams& params, uint64_t seed_base = 1000);

// Print one figure: header, machine-readable rows, and an ASCII plot with
// 'w' = with SLEDs, 'o' = without.
void PrintFigure(const std::string& figure_id, const std::string& title,
                 const std::string& y_label, const std::vector<SeriesPoint>& points);

// Print the ratio figure derived from a time sweep (paper Figs 8 and 12).
void PrintRatioFigure(const std::string& figure_id, const std::string& title,
                      const std::vector<SeriesPoint>& points);

// Emit a machine-readable metrics block:
//   ==== BENCH_<bench_id>.json ====
//   { ... }
//   ==== END BENCH_<bench_id>.json ====
// If SLEDS_BENCH_JSON_DIR is set, the JSON is also written to
// $SLEDS_BENCH_JSON_DIR/BENCH_<bench_id>.json.
void PrintBenchMetrics(const std::string& bench_id, const std::string& metrics_json);

}  // namespace sled

#endif  // SLEDS_BENCH_BENCH_UTIL_H_
