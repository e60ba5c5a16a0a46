// Randomized differential test: the frame-table PageCache against the
// reference model (tests/reference_page_cache.h), the node-based layout it
// replaced. Millions of mixed operations — touches, inserts (clean, dirty,
// in-flight, via every probe API), pins, truncates, arrivals — must produce
// identical residency, dirty sets, eviction sequences, pin results, and stats
// under both replacement policies, the frame table's internal audit
// (ValidateIndex) must hold throughout, and the run-oriented queries must
// agree with runs derived from the reference's full-scan resident-page list.
// The reference's own indexed queries — the ones bench_scale times — are
// checked against PageCache at every audited page too.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/common/rng.h"
#include "tests/reference_page_cache.h"

namespace sled {
namespace {

std::vector<PageRun> RunsFromPages(const std::vector<int64_t>& pages) {
  std::vector<PageRun> runs;
  for (int64_t page : pages) {
    if (!runs.empty() && runs.back().end() == page) {
      ++runs.back().count;
    } else {
      runs.push_back(PageRun{page, 1});
    }
  }
  return runs;
}

void ExpectSameState(const PageCache& cache, const ReferencePageCache& ref,
                     const std::vector<FileId>& files, int64_t max_page) {
  ASSERT_TRUE(cache.ValidateIndex());
  EXPECT_EQ(cache.size_pages(), ref.size_pages());
  EXPECT_EQ(cache.pinned_pages(), ref.pinned_pages());
  EXPECT_EQ(cache.in_flight_pages(), ref.in_flight_pages());
  EXPECT_EQ(cache.stats().hits, ref.stats().hits);
  EXPECT_EQ(cache.stats().misses, ref.stats().misses);
  EXPECT_EQ(cache.stats().insertions, ref.stats().insertions);
  EXPECT_EQ(cache.stats().evictions, ref.stats().evictions);
  EXPECT_EQ(cache.stats().dirty_evictions, ref.stats().dirty_evictions);
  const std::vector<PageKey> all_dirty = ref.AllDirtyPages();
  EXPECT_EQ(cache.AllDirtyPages(), all_dirty);
  for (FileId file : files) {
    const std::vector<int64_t> pages = ref.ResidentPagesOf(file);
    EXPECT_EQ(cache.ResidentPagesOf(file), pages);
    std::vector<PageKey> dirty;
    std::copy_if(all_dirty.begin(), all_dirty.end(), std::back_inserter(dirty),
                 [file](const PageKey& k) { return k.file == file; });
    EXPECT_EQ(cache.DirtyPagesOf(file), dirty);
    EXPECT_EQ(ref.DirtyPagesOf(file), dirty) << "reference dirty index, file " << file;
    const std::vector<PageRun> runs = RunsFromPages(pages);
    EXPECT_EQ(cache.ResidentRunsOf(file), runs);
    EXPECT_EQ(cache.ResidentRunCountOf(file), static_cast<int64_t>(runs.size()));
    // Probe every page: run queries must agree with the flat page list.
    for (int64_t page = 0; page <= max_page; ++page) {
      const auto run_at = cache.ResidentRunAt(file, page);
      const bool resident = std::binary_search(pages.begin(), pages.end(), page);
      ASSERT_EQ(run_at.has_value(), resident) << "file " << file << " page " << page;
      if (resident) {
        EXPECT_LE(run_at->first, page);
        EXPECT_GT(run_at->end(), page);
        EXPECT_EQ(cache.NextMissAfter(file, page), run_at->end());
      } else {
        EXPECT_EQ(cache.NextMissAfter(file, page), page);
      }
      const auto next = cache.NextResidentRun(file, page);
      const auto expect = std::find_if(runs.begin(), runs.end(),
                                       [page](const PageRun& r) { return r.end() > page; });
      ASSERT_EQ(next.has_value(), expect != runs.end());
      if (next.has_value()) {
        EXPECT_EQ(*next, *expect);
      }
      // The reference's run index (what bench_scale times) must agree too.
      EXPECT_EQ(ref.NextResidentRun(file, page), next) << "file " << file << " page " << page;
      EXPECT_EQ(ref.NextMissAfter(file, page), cache.NextMissAfter(file, page))
          << "file " << file << " page " << page;
    }
  }
}

// Test-enforced bound on concurrently in-flight pages: with capacity 64,
// Pin() itself caps pinned pages at 32, so <= 16 in-flight leaves at least 16
// evictable pages and eviction can never strand.
constexpr int64_t kMaxInFlight = 16;

void RunDifferential(ReplacementPolicy policy, uint64_t seed, int ops, int checkpoint_every) {
  const PageCacheConfig config{.capacity_pages = 64, .policy = policy};
  PageCache cache(config);
  ReferencePageCache ref(config);
  Rng rng(seed);
  const std::vector<FileId> files = {1, 2, 3, 7};
  constexpr int64_t kMaxPage = 99;
  // Every victim either layout ever reports, in order; compared at each
  // checkpoint on top of the per-op result comparison, so a divergence in
  // replacement order is caught even if the op results happen to agree.
  std::vector<EvictedPage> evictions_cache;
  std::vector<EvictedPage> evictions_ref;
  std::vector<PageKey> in_flight_keys;
  auto record = [](std::vector<EvictedPage>& log, const std::optional<EvictedPage>& e) {
    if (e.has_value()) {
      log.push_back(*e);
    }
  };
  for (int op = 0; op < ops; ++op) {
    const FileId file = files[static_cast<size_t>(rng.Uniform(0, 3))];
    const int64_t page = rng.Uniform(0, kMaxPage);
    const PageKey key{file, page};
    // Destructive ops (truncate, RemoveFile, Clear) are kept rare: insert
    // pressure must outrun removal so the cache sits at capacity and the
    // eviction path — the point of this test — is exercised constantly.
    const int64_t roll = rng.Uniform(0, 99);
    if (roll < 20) {  // Touch, half through the frame-returning probe
      if (rng.Uniform(0, 1) == 0) {
        EXPECT_EQ(cache.Touch(key), ref.Touch(key));
      } else {
        PageCache::Frame* frame = cache.TouchProbe(key);
        EXPECT_EQ(frame != nullptr, ref.Touch(key));
        if (frame != nullptr) {
          EXPECT_EQ(frame->key(), key);
          EXPECT_EQ(frame->dirty(), ref.IsDirty(key));
          EXPECT_EQ(frame->pinned(), ref.IsPinned(key));
          EXPECT_EQ(frame->in_flight(), ref.IsInFlight(key));
        }
      }
    } else if (roll < 60) {  // Insert, clean or dirty, via a random API
      const bool dirty = rng.Uniform(0, 2) == 0;
      switch (rng.Uniform(0, 2)) {
        case 0: {
          auto a = cache.Insert(key, dirty);
          auto b = ref.Insert(key, dirty);
          EXPECT_EQ(a, b);
          record(evictions_cache, a);
          record(evictions_ref, b);
          break;
        }
        case 1: {
          auto a = cache.InsertIfAbsent(key, dirty);
          auto b = ref.InsertIfAbsent(key, dirty);
          EXPECT_EQ(a, b);
          record(evictions_cache, a);
          record(evictions_ref, b);
          break;
        }
        case 2: {  // the kernel's write path: Probe then Freshen-or-Insert
          if (PageCache::Frame* frame = cache.Probe(key)) {
            cache.Freshen(frame, dirty);
            ref.Insert(key, dirty);  // resident: refresh + OR dirty
          } else {
            auto a = cache.Insert(key, dirty);
            auto b = ref.Insert(key, dirty);
            EXPECT_EQ(a, b);
            record(evictions_cache, a);
            record(evictions_ref, b);
          }
          break;
        }
      }
    } else if (roll < 66) {  // in-flight insert (bounded) / arrival
      if (cache.in_flight_pages() < kMaxInFlight && rng.Uniform(0, 1) == 0) {
        auto a = cache.InsertIfAbsent(key, /*dirty=*/false, /*in_flight=*/true);
        auto b = ref.InsertIfAbsent(key, /*dirty=*/false, /*in_flight=*/true);
        EXPECT_EQ(a, b);
        record(evictions_cache, a);
        record(evictions_ref, b);
        if (cache.IsInFlight(key)) {
          in_flight_keys.push_back(key);
        }
      } else if (!in_flight_keys.empty()) {
        const size_t pick =
            static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(in_flight_keys.size()) - 1));
        const PageKey arrived = in_flight_keys[pick];
        in_flight_keys.erase(in_flight_keys.begin() + static_cast<std::ptrdiff_t>(pick));
        cache.MarkArrived(arrived);
        ref.MarkArrived(arrived);
        EXPECT_FALSE(cache.IsInFlight(arrived));
      }
      EXPECT_EQ(cache.IsInFlight(key), ref.IsInFlight(key));
    } else if (roll < 71) {  // Remove
      cache.Remove(key);
      ref.Remove(key);
    } else if (roll < 78) {  // Pin / Unpin, half through the frame API
      if (rng.Uniform(0, 2) != 0) {
        if (rng.Uniform(0, 1) == 0) {
          EXPECT_EQ(cache.Pin(key), ref.Pin(key));
        } else {
          EXPECT_EQ(cache.Pin(cache.Probe(key)), ref.Pin(key));
        }
      } else {
        cache.Unpin(key);
        ref.Unpin(key);
      }
      EXPECT_EQ(cache.IsPinned(key), ref.IsPinned(key));
    } else if (roll < 86) {  // MarkDirty / MarkClean on resident pages
      if (PageCache::Frame* frame = cache.Probe(key)) {
        if (rng.Uniform(0, 1) == 0) {
          if (rng.Uniform(0, 1) == 0) {
            cache.MarkDirty(key);
          } else {
            cache.MarkDirty(frame);
          }
          ref.MarkDirty(key);
        } else {
          cache.MarkClean(key);
          ref.MarkClean(key);
        }
      }
      EXPECT_EQ(cache.IsDirty(key), ref.IsDirty(key));
    } else if (roll < 87) {  // RemovePagesFrom (truncate)
      cache.RemovePagesFrom(file, page);
      ref.RemovePagesFrom(file, page);
    } else if (roll < 88) {  // RemoveFile (halved again: it drops size/4 pages)
      if (rng.Uniform(0, 1) == 0) {
        cache.RemoveFile(file);
        ref.RemoveFile(file);
      } else {
        cache.Remove(key);
        ref.Remove(key);
      }
    } else if (roll < 99) {  // spot-check queries
      EXPECT_EQ(cache.Contains(key), ref.Contains(key));
      EXPECT_EQ(cache.IsDirty(key), ref.IsDirty(key));
      EXPECT_EQ(cache.IsInFlight(key), ref.IsInFlight(key));
      const PageCache::Frame* frame = cache.Probe(key);
      EXPECT_EQ(frame != nullptr, ref.Contains(key));
    } else if (rng.Uniform(0, 9) == 0) {  // very rare full reset (~0.1%)
      cache.Clear();
      ref.Clear();
      in_flight_keys.clear();
    }
    if (op % checkpoint_every == checkpoint_every - 1) {
      EXPECT_EQ(evictions_cache, evictions_ref);
      ExpectSameState(cache, ref, files, kMaxPage);
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence at op " << op << " (policy "
               << (policy == ReplacementPolicy::kLru ? "lru" : "clock") << ", seed " << seed
               << ")";
      }
    }
  }
  EXPECT_EQ(evictions_cache, evictions_ref);
  EXPECT_GT(evictions_cache.size(), 0u);
  ExpectSameState(cache, ref, files, kMaxPage);
}

TEST(CacheDiffTest, LruMatchesReferenceModel) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunDifferential(ReplacementPolicy::kLru, seed, 4000, 200);
  }
}

TEST(CacheDiffTest, ClockMatchesReferenceModel) {
  for (uint64_t seed : {44u, 55u, 66u}) {
    RunDifferential(ReplacementPolicy::kClock, seed, 4000, 200);
  }
}

// The scale acceptance run: over a million randomized operations under each
// policy with identical eviction order throughout (full-state audits are
// spread out to keep the runtime in check; every op still compares results).
TEST(CacheDiffTest, MillionOpsLru) {
  RunDifferential(ReplacementPolicy::kLru, 77, 1000001, 100000);
}

TEST(CacheDiffTest, MillionOpsClock) {
  RunDifferential(ReplacementPolicy::kClock, 88, 1000001, 100000);
}

}  // namespace
}  // namespace sled
