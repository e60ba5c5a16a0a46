#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "sled_git_sha.h"  // generated at build time (bench/git_sha.cmake)
#include "src/common/units.h"
#include "src/shard/shard_runtime.h"

namespace sled {

BenchParams BenchParams::FromEnv(std::vector<int64_t> default_sizes) {
  BenchParams params;
  if (const char* env = std::getenv("SLEDS_BENCH_REPEATS")) {
    params.repeats = std::max(2, atoi(env));
  }
  int64_t max_mb = 1 << 20;
  if (const char* env = std::getenv("SLEDS_BENCH_MAX_MB")) {
    max_mb = std::max(1, atoi(env));
  }
  int64_t step_mb = 0;
  if (const char* env = std::getenv("SLEDS_BENCH_STEP_MB")) {
    step_mb = std::max(1, atoi(env));
  }
  int64_t last_mb = -1;
  for (int64_t size : default_sizes) {
    const int64_t mb = size / kMiB;
    if (mb > max_mb) {
      continue;
    }
    if (step_mb > 0 && last_mb >= 0 && mb - last_mb < step_mb) {
      continue;
    }
    params.sizes.push_back(size);
    last_mb = mb;
  }
  if (params.sizes.empty()) {
    params.sizes.push_back(default_sizes.front());
  }
  return params;
}

SweepResult RunFigureSweep(const std::function<Testbed(uint64_t seed)>& make_testbed,
                           const PrepareFn& prepare, const AppRunnerFn& run,
                           const BenchParams& params, uint64_t seed_base) {
  SweepResult result;
  uint64_t seed = seed_base;
  for (int64_t size : params.sizes) {
    SeriesPoint time_point;
    SeriesPoint fault_point;
    time_point.x = static_cast<double>(size) / static_cast<double>(kMiB);
    fault_point.x = time_point.x;
    // Host wall time of the two modes' preparation (testbed and input
    // generation) and of their measured series, warm-up run included.
    double prepare_s = 0;
    double runs_s = 0;
    for (bool use_sleds : {false, true}) {
      ++seed;
      const auto start = std::chrono::steady_clock::now();
      Testbed tb = make_testbed(seed);
      Rng rng(seed * 7919);
      auto per_run_setup = prepare(tb, size, rng);
      const auto prepared = std::chrono::steady_clock::now();
      const MeasuredPoint point = RunWarmCacheSeries(
          tb, params.repeats, rng, per_run_setup,
          [&](SimKernel& k, Process& p) { run(k, p, use_sleds); });
      prepare_s += std::chrono::duration<double>(prepared - start).count();
      runs_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - prepared).count();
      if (use_sleds) {
        time_point.with_sleds = point.seconds;
        fault_point.with_sleds = point.faults;
      } else {
        time_point.without_sleds = point.seconds;
        fault_point.without_sleds = point.faults;
      }
      result.metrics_json = tb.kernel->obs().MetricsJson();
    }
    result.time_points.push_back(time_point);
    result.fault_points.push_back(fault_point);
    std::fprintf(stderr, "  [%4.0f MB done: prepare %.2f s, runs %.2f s wall]\n", time_point.x,
                 prepare_s, runs_s);
  }
  return result;
}

namespace {

void PrintPlot(const std::string& title, const std::string& y_label,
               const std::vector<SeriesPoint>& points) {
  PlotSeries with{"with SLEDs", 'w', {}, {}};
  PlotSeries without{"without SLEDs", 'o', {}, {}};
  for (const SeriesPoint& p : points) {
    with.xs.push_back(p.x);
    with.ys.push_back(p.with_sleds.mean);
    without.xs.push_back(p.x);
    without.ys.push_back(p.without_sleds.mean);
  }
  PlotOptions options;
  options.title = title;
  options.x_label = "File size (MB)";
  options.y_label = y_label;
  std::fputs(RenderPlot({without, with}, options).c_str(), stdout);
}

}  // namespace

void PrintFigure(const std::string& figure_id, const std::string& title,
                 const std::string& y_label, const std::vector<SeriesPoint>& points) {
  std::printf("\n==== %s: %s ====\n", figure_id.c_str(), title.c_str());
  std::fputs(FormatSeries(title, "File size (MB)", y_label, points).c_str(), stdout);
  PrintPlot(title, y_label, points);
}

void PrintRatioFigure(const std::string& figure_id, const std::string& title,
                      const std::vector<SeriesPoint>& points) {
  std::printf("\n==== %s: %s ====\n", figure_id.c_str(), title.c_str());
  std::printf("%-16s %12s\n", "File size (MB)", "speedup");
  PlotSeries ratio{"without/with (speedup)", '*', {}, {}};
  for (const SeriesPoint& p : points) {
    std::printf("%-16.1f %12.2f\n", p.x, p.speedup());
    ratio.xs.push_back(p.x);
    ratio.ys.push_back(p.speedup());
  }
  PlotOptions options;
  options.title = title;
  options.x_label = "File size (MB)";
  options.y_label = "Improvement ratio";
  std::fputs(RenderPlot({ratio}, options).c_str(), stdout);
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    if (c == '\n' || c == '\t') {
      c = ' ';
    }
    out.push_back(c);
  }
  return out;
}

// One-line JSON object describing the binary and host that produced the
// numbers, so wall-clock figures across PRs are comparable (sim-time fields
// need no provenance — they are machine-independent).
const std::string& BuildMetadataJson() {
  static const std::string json = [] {
    const char* sha = SLEDS_GIT_SHA;
#ifdef SLEDS_BUILD_TYPE
    const char* build_type = SLEDS_BUILD_TYPE;
#else
    const char* build_type = "unknown";
#endif
#ifdef SLEDS_CXX_FLAGS
    const char* flags = SLEDS_CXX_FLAGS;
#else
    const char* flags = "unknown";
#endif
    std::string cpu = "unknown";
    if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
      char line[512];
      while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "model name", 10) == 0) {
          if (const char* colon = std::strchr(line, ':')) {
            cpu = colon + 1;
            while (!cpu.empty() && (cpu.front() == ' ' || cpu.front() == '\t')) {
              cpu.erase(cpu.begin());
            }
            while (!cpu.empty() && (cpu.back() == '\n' || cpu.back() == '\r')) {
              cpu.pop_back();
            }
          }
          break;
        }
      }
      std::fclose(f);
    }
    std::string out = "{\"compiler\": \"";
    out += JsonEscape(__VERSION__);
    out += "\", \"build_type\": \"";
    out += JsonEscape(build_type);
    out += "\", \"flags\": \"";
    out += JsonEscape(flags);
    out += "\", \"cpu\": \"";
    out += JsonEscape(cpu);
    out += "\", \"git_sha\": \"";
    out += JsonEscape(sha);
    // Parallelism provenance: wall-clock numbers from a sharded run only
    // compare across hosts with the same effective parallelism, so stamp the
    // hardware-thread count and the resolved default shard count ($SLEDS_SHARDS
    // or hardware threads).
    out += "\", \"hardware_threads\": ";
    out += std::to_string(HardwareThreads());
    out += ", \"shards\": ";
    out += std::to_string(ResolveShardCount(0));
    out += "}";
    return out;
  }();
  return json;
}

// Splice the build block in as the first member of the top-level object.
std::string StampBuildMetadata(const std::string& metrics_json) {
  const size_t brace = metrics_json.find('{');
  if (brace == std::string::npos) {
    return metrics_json;
  }
  std::string stamped = metrics_json;
  stamped.insert(brace + 1, "\n  \"build\": " + BuildMetadataJson() + ",");
  return stamped;
}

}  // namespace

void PrintBenchMetrics(const std::string& bench_id, const std::string& metrics_json) {
  const std::string stamped = StampBuildMetadata(metrics_json);
  std::printf("\n==== BENCH_%s.json ====\n", bench_id.c_str());
  std::fputs(stamped.c_str(), stdout);
  if (!stamped.empty() && stamped.back() != '\n') {
    std::fputs("\n", stdout);
  }
  std::printf("==== END BENCH_%s.json ====\n", bench_id.c_str());
  if (const char* dir = std::getenv("SLEDS_BENCH_JSON_DIR")) {
    const std::string path = std::string(dir) + "/BENCH_" + bench_id + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(stamped.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }
}

}  // namespace sled
