// Million-page scale benchmark for the frame-table page cache (DESIGN.md §9).
//
// Pits the frame-table PageCache against the reference page cache
// (tests/reference_page_cache.h), the previous storage layout — std::unordered_map
// entries, a std::list recency ring, and std::map/std::set per-file residency
// indexes — on cache-wide workloads at production scale: a 1M-page cache
// shared by 100k files. Replacement decisions are bit-for-bit identical
// between the two layouts (asserted on a small differential prefix before
// timing, and over a million ops by cache_diff_test), so every measured
// difference is pure storage-layout wall-clock cost.
//
// Wall-clock only: the simulated clock plays no part here.
//
// Environment knobs:
//   SLEDS_SCALE_PAGES    cache capacity in pages          (default 1048576)
//   SLEDS_SCALE_FILES    files sharing the cache          (default 100000)
//   SLEDS_SCALE_OPS      operations per timed workload    (default 2000000)
//   SLEDS_SCALE_REPEATS  best-of-N timing repeats         (default 3)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/page_cache.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/obs/observer.h"
#include "tests/reference_page_cache.h"

namespace sled {
namespace {

// Keep the compiler from eliding a measured computation without linking
// google-benchmark into this binary.
template <typename T>
inline void Sink(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct ScaleConfig {
  int64_t capacity_pages = 1 << 20;  // 1M pages = 4 GiB of 4 KiB pages
  int64_t files = 100000;
  int64_t ops = 2000000;
  int repeats = 3;

  static ScaleConfig FromEnv() {
    ScaleConfig c;
    if (const char* env = std::getenv("SLEDS_SCALE_PAGES")) {
      c.capacity_pages = std::max<int64_t>(1024, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_SCALE_FILES")) {
      c.files = std::max<int64_t>(1, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_SCALE_OPS")) {
      c.ops = std::max<int64_t>(1000, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_SCALE_REPEATS")) {
      c.repeats = std::max(1, atoi(env));
    }
    return c;
  }
};

struct MicroResult {
  double naive_us = 0;    // reference node-based layout
  double indexed_us = 0;  // frame table
  double speedup() const { return indexed_us > 0 ? naive_us / indexed_us : 0; }
};

template <typename F>
double BestWallMicros(int iters, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

// Striped residency fill: each file holds pages [0, 8) and [16, 24) of its
// page space (two runs per file, half dirty candidates), round-robin across
// files until the cache holds ~90% of capacity. Applies the identical
// sequence to both caches.
template <typename Cache>
void FillStriped(Cache& cache, const ScaleConfig& cfg) {
  const int64_t target = cfg.capacity_pages * 9 / 10;
  int64_t inserted = 0;
  for (int64_t round = 0; inserted < target; ++round) {
    for (int64_t f = 0; f < cfg.files && inserted < target; ++f) {
      const int64_t page = (round / 8) * 16 + (round % 8);
      cache.Insert({static_cast<FileId>(f + 1), page}, false);
      ++inserted;
    }
  }
}

// The per-op sequences are identical across layouts: deterministic Rng keyed
// by workload, drawn once into flat key streams at construction so the timed
// loops measure cache operations, not random-number generation (shared rng
// overhead in the loop would compress the reported ratios).
struct Workloads {
  ScaleConfig cfg;
  std::vector<PageKey> touch_keys;
  std::vector<PageKey> query_keys;  // page field holds the probe offset
  std::vector<FileId> wb_files;

  explicit Workloads(const ScaleConfig& config) : cfg(config) {
    Rng touch_rng(101);
    const int64_t rounds = cfg.capacity_pages * 9 / 10 / cfg.files;
    touch_keys.reserve(static_cast<size_t>(cfg.ops));
    for (int64_t i = 0; i < cfg.ops; ++i) {
      const FileId f = static_cast<FileId>(touch_rng.Uniform(1, cfg.files));
      const int64_t r = touch_rng.Uniform(0, std::max<int64_t>(rounds - 1, 0));
      touch_keys.push_back({f, (r / 8) * 16 + (r % 8)});
    }
    Rng query_rng(303);
    query_keys.reserve(static_cast<size_t>(cfg.ops));
    for (int64_t i = 0; i < cfg.ops; ++i) {
      query_keys.push_back({static_cast<FileId>(query_rng.Uniform(1, cfg.files)),
                            query_rng.Uniform(0, 31)});
    }
    Rng wb_rng(505);
    wb_files.reserve(static_cast<size_t>(cfg.ops / 8));
    for (int64_t i = 0; i < cfg.ops / 8; ++i) {
      wb_files.push_back(static_cast<FileId>(wb_rng.Uniform(1, cfg.files)));
    }
  }

  // Random touches of (mostly) resident pages across all files.
  template <typename Cache>
  int64_t TouchHits(Cache& cache) const {
    int64_t hits = 0;
    for (const PageKey& key : touch_keys) {
      hits += cache.Touch(key) ? 1 : 0;
    }
    return hits;
  }

  // Sequential insert churn at full capacity: every insert past the fill
  // evicts the LRU page (the Figure-3 "cache full" regime).
  template <typename Cache>
  int64_t InsertEvict(Cache& cache) const {
    int64_t dirty_evictions = 0;
    for (int64_t i = 0; i < cfg.ops; ++i) {
      const FileId f = static_cast<FileId>(i % cfg.files + 1);
      const int64_t page = 1000000 + i / cfg.files;  // fresh page space
      auto evicted = cache.Insert({f, page}, (i & 7) == 0);
      if (evicted.has_value() && evicted->dirty) {
        ++dirty_evictions;
      }
    }
    return dirty_evictions;
  }

  // SLED-scan style queries over the striped residency index.
  template <typename Cache>
  int64_t RunQueries(Cache& cache) const {
    int64_t acc = 0;
    for (const PageKey& key : query_keys) {
      if (const auto run = cache.NextResidentRun(key.file, key.page); run.has_value()) {
        acc += run->first + run->count;
      }
      acc += cache.NextMissAfter(key.file, key.page);
    }
    return acc;
  }

  // Fsync-style cycle: dirty a few pages of a file, collect its dirty list,
  // write it back clean.
  template <typename Cache>
  int64_t DirtyWriteback(Cache& cache) const {
    int64_t flushed = 0;
    for (const FileId f : wb_files) {
      for (int64_t p : {0, 2, 4, 16}) {
        if (cache.Touch({f, p})) {
          cache.MarkDirty({f, p});
        }
      }
      for (const PageKey& key : cache.DirtyPagesOf(f)) {
        cache.MarkClean(key);
        ++flushed;
      }
    }
    return flushed;
  }
};

// Differential prefix: both layouts run the same randomized op mix on a small
// cache; victim order, stats, and per-op results must agree exactly.
void AssertIdenticalBehavior() {
  const PageCacheConfig cfg{.capacity_pages = 1024, .policy = ReplacementPolicy::kLru};
  PageCache frame(cfg);
  ReferencePageCache ref(cfg);
  Rng rng(42);
  for (int64_t i = 0; i < 200000; ++i) {
    const FileId f = static_cast<FileId>(rng.Uniform(1, 64));
    const int64_t page = rng.Uniform(0, 255);
    switch (rng.Uniform(0, 3)) {
      case 0: {
        SLED_CHECK(frame.Touch({f, page}) == ref.Touch({f, page}), "Touch mismatch");
        break;
      }
      case 1:
      case 2: {
        const bool dirty = rng.Uniform(0, 1) == 1;
        auto a = frame.Insert({f, page}, dirty);
        auto b = ref.Insert({f, page}, dirty);
        SLED_CHECK(a == b, "eviction mismatch at op %lld", static_cast<long long>(i));
        break;
      }
      case 3: {
        const auto a = frame.NextResidentRun(f, page);
        const auto b = ref.NextResidentRun(f, page);
        SLED_CHECK(a == b, "run query mismatch");
        break;
      }
    }
  }
  const PageCacheStats& fs = frame.stats();
  const PageCacheStats& rs = ref.stats();
  SLED_CHECK(fs.hits == rs.hits && fs.misses == rs.misses && fs.insertions == rs.insertions &&
                 fs.evictions == rs.evictions && fs.dirty_evictions == rs.dirty_evictions,
             "stats diverged");
  SLED_CHECK(frame.ValidateIndex(), "frame-table index invalid");
}

void RunScaleSuite() {
  const ScaleConfig cfg = ScaleConfig::FromEnv();
  std::fprintf(stderr, "bench_scale: %lld pages, %lld files, %lld ops, best of %d\n",
               static_cast<long long>(cfg.capacity_pages), static_cast<long long>(cfg.files),
               static_cast<long long>(cfg.ops), cfg.repeats);
  AssertIdenticalBehavior();
  std::fprintf(stderr, "  differential prefix ok (identical victim order)\n");

  const PageCacheConfig cache_cfg{.capacity_pages = cfg.capacity_pages,
                                  .policy = ReplacementPolicy::kLru};
  const Workloads w(cfg);

  // Touch / query / writeback workloads share one striped fill per layout;
  // the timed sections do not change residency (writeback restores
  // cleanliness), so repeats see identical state.
  PageCache frame(cache_cfg);
  ReferencePageCache ref(cache_cfg);
  FillStriped(frame, cfg);
  FillStriped(ref, cfg);
  SLED_CHECK(frame.size_pages() == ref.size_pages(), "fill mismatch");
  std::fprintf(stderr, "  filled %lld pages per layout\n",
               static_cast<long long>(frame.size_pages()));

  MicroResult touch;
  touch.naive_us = BestWallMicros(cfg.repeats, [&] { Sink(w.TouchHits(ref)); });
  touch.indexed_us = BestWallMicros(cfg.repeats, [&] { Sink(w.TouchHits(frame)); });
  std::fprintf(stderr, "  touch_hit done (%.2fx)\n", touch.speedup());

  MicroResult query;
  query.naive_us = BestWallMicros(cfg.repeats, [&] { Sink(w.RunQueries(ref)); });
  query.indexed_us = BestWallMicros(cfg.repeats, [&] { Sink(w.RunQueries(frame)); });
  std::fprintf(stderr, "  run_query done (%.2fx)\n", query.speedup());

  MicroResult wb;
  wb.naive_us = BestWallMicros(cfg.repeats, [&] { Sink(w.DirtyWriteback(ref)); });
  wb.indexed_us = BestWallMicros(cfg.repeats, [&] { Sink(w.DirtyWriteback(frame)); });
  std::fprintf(stderr, "  dirty_writeback done (%.2fx)\n", wb.speedup());

  // Insert/evict churns residency, so each repeat rebuilds a fresh cache;
  // only the churn itself is inside the timed window.
  MicroResult churn;
  {
    double best_naive = std::numeric_limits<double>::infinity();
    double best_frame = std::numeric_limits<double>::infinity();
    for (int i = 0; i < cfg.repeats; ++i) {
      ReferencePageCache rc(cache_cfg);
      FillStriped(rc, cfg);
      auto t0 = std::chrono::steady_clock::now();
      Sink(w.InsertEvict(rc));
      auto t1 = std::chrono::steady_clock::now();
      best_naive =
          std::min(best_naive, std::chrono::duration<double, std::micro>(t1 - t0).count());

      PageCache fc(cache_cfg);
      FillStriped(fc, cfg);
      t0 = std::chrono::steady_clock::now();
      Sink(w.InsertEvict(fc));
      t1 = std::chrono::steady_clock::now();
      best_frame =
          std::min(best_frame, std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    churn.naive_us = best_naive;
    churn.indexed_us = best_frame;
  }
  std::fprintf(stderr, "  insert_evict done (%.2fx)\n", churn.speedup());

  // Publish the frame-table occupancy through the observability gauges (the
  // figure benches keep their gauges section absent; this bench is where the
  // cache.* gauges are exercised end to end).
  SimClock clock;
  Observer obs(&clock, /*trace_capacity=*/16);
  obs.CacheGauges(frame.size_pages(), frame.capacity_pages(), frame.pinned_pages(),
                  frame.in_flight_pages(),
                  static_cast<int64_t>(frame.AllDirtyPages().size()),
                  frame.resident_file_count());

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"config\": {\"capacity_pages\": %lld, \"files\": %lld, \"ops\": %lld},\n"
      "  \"touch_hit\": {\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"insert_evict\": {\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"run_query\": {\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"dirty_writeback\": {\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"gauges\": {\"cache_size_pages\": %lld, \"cache_resident_files\": %lld,\n"
      "             \"cache_dirty_pages\": %lld}\n"
      "}",
      static_cast<long long>(cfg.capacity_pages), static_cast<long long>(cfg.files),
      static_cast<long long>(cfg.ops), touch.naive_us, touch.indexed_us, touch.speedup(),
      churn.naive_us, churn.indexed_us, churn.speedup(), query.naive_us, query.indexed_us,
      query.speedup(), wb.naive_us, wb.indexed_us, wb.speedup(),
      static_cast<long long>(obs.metrics().gauge("cache.size_pages")),
      static_cast<long long>(obs.metrics().gauge("cache.resident_files")),
      static_cast<long long>(obs.metrics().gauge("cache.dirty_pages")));
  PrintBenchMetrics("scale", json);
}

}  // namespace
}  // namespace sled

int main() {
  sled::RunScaleSuite();
  return 0;
}
