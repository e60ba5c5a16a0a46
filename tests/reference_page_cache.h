// The reference page cache: the node-based layout PageCache replaced
// (DESIGN.md §9), kept as one model for two jobs.
//
//   - cache_diff_test runs it beside PageCache as the correctness oracle:
//     victim order, stats, pins, in-flight pages and every removal path must
//     match under both LRU and Clock.
//   - bench_scale times it as the speed baseline the frame table is measured
//     against.
//
// Layout: std::unordered_map entries, a std::list recency ring, and per file
// a std::map of resident runs plus a std::set of dirty pages. The run index
// serves only the three queries bench_scale times (NextResidentRun,
// NextMissAfter, DirtyPagesOf), and cache_diff_test checks those against
// PageCache. ResidentPagesOf and AllDirtyPages stay full scans of the entry
// table, so the oracle's residency answer does not depend on any index.
//
// A precondition violation (marking a page the model does not hold, no
// evictable page) throws std::logic_error naming the operation, so a
// divergence reaches gtest as a test failure rather than aborting the binary.
#ifndef SLEDS_TESTS_REFERENCE_PAGE_CACHE_H_
#define SLEDS_TESTS_REFERENCE_PAGE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/page_cache.h"

namespace sled {

class ReferencePageCache {
 public:
  explicit ReferencePageCache(PageCacheConfig config) : config_(config) {}

  bool Contains(PageKey key) const { return entries_.contains(key); }

  bool Touch(PageKey key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    Refresh(it->second);
    return true;
  }

  std::optional<EvictedPage> Insert(PageKey key, bool dirty, bool in_flight = false) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (dirty) {
        it->second.dirty = true;
        index_[key.file].dirty.insert(key.page);
      }
      Refresh(it->second);
      return std::nullopt;
    }
    std::optional<EvictedPage> evicted;
    if (static_cast<int64_t>(entries_.size()) >= config_.capacity_pages) {
      evicted = EvictOne();
    }
    order_.push_back(key);
    entries_.emplace(key, Entry{std::prev(order_.end()), dirty, false, false, in_flight});
    IndexInsert(key);
    if (dirty) {
      index_[key.file].dirty.insert(key.page);
    }
    if (in_flight) {
      ++in_flight_;
    }
    ++stats_.insertions;
    return evicted;
  }

  // A resident page stays completely untouched (no recency refresh).
  std::optional<EvictedPage> InsertIfAbsent(PageKey key, bool dirty, bool in_flight = false) {
    if (Contains(key)) {
      return std::nullopt;
    }
    return Insert(key, dirty, in_flight);
  }

  void MarkArrived(PageKey key) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.in_flight) {
      it->second.in_flight = false;
      --in_flight_;
    }
  }

  bool IsInFlight(PageKey key) const {
    auto it = entries_.find(key);
    return it != entries_.end() && it->second.in_flight;
  }

  bool Pin(PageKey key) {
    auto it = entries_.find(key);
    if (it == entries_.end() || pinned_ >= config_.capacity_pages / 2) {
      return false;
    }
    if (!it->second.pinned) {
      it->second.pinned = true;
      ++pinned_;
    }
    return true;
  }

  void Unpin(PageKey key) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.pinned) {
      it->second.pinned = false;
      --pinned_;
    }
  }

  bool IsPinned(PageKey key) const {
    auto it = entries_.find(key);
    return it != entries_.end() && it->second.pinned;
  }

  // Both require residency.
  void MarkDirty(PageKey key) {
    Resident(key, "MarkDirty").dirty = true;
    index_[key.file].dirty.insert(key.page);
  }

  void MarkClean(PageKey key) {
    Resident(key, "MarkClean").dirty = false;
    index_[key.file].dirty.erase(key.page);
  }

  bool IsDirty(PageKey key) const {
    auto it = entries_.find(key);
    return it != entries_.end() && it->second.dirty;
  }

  void Remove(PageKey key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return;
    }
    if (it->second.pinned) {
      --pinned_;
    }
    if (it->second.in_flight) {
      --in_flight_;
    }
    order_.erase(it->second.it);
    entries_.erase(it);
    IndexRemove(key);
  }

  void RemoveFile(FileId file) { RemovePagesFrom(file, 0); }

  void RemovePagesFrom(FileId file, int64_t first_page) {
    for (int64_t page : ResidentPagesOf(file)) {
      if (page >= first_page) {
        Remove({file, page});
      }
    }
  }

  void Clear() {
    entries_.clear();
    order_.clear();
    index_.clear();
    pinned_ = 0;
    in_flight_ = 0;
  }

  // ---- full scans of the entry table ----
  std::vector<int64_t> ResidentPagesOf(FileId file) const {
    std::vector<int64_t> pages;
    for (const auto& [key, entry] : entries_) {
      if (key.file == file) {
        pages.push_back(key.page);
      }
    }
    std::sort(pages.begin(), pages.end());
    return pages;
  }

  std::vector<PageKey> AllDirtyPages() const {
    std::vector<PageKey> dirty;
    for (const auto& [key, entry] : entries_) {
      if (entry.dirty) {
        dirty.push_back(key);
      }
    }
    std::sort(dirty.begin(), dirty.end(), [](const PageKey& a, const PageKey& b) {
      return a.file != b.file ? a.file < b.file : a.page < b.page;
    });
    return dirty;
  }

  // ---- the indexed queries bench_scale times ----
  std::vector<PageKey> DirtyPagesOf(FileId file) const {
    std::vector<PageKey> dirty;
    auto fit = index_.find(file);
    if (fit == index_.end()) {
      return dirty;
    }
    dirty.reserve(fit->second.dirty.size());
    for (int64_t page : fit->second.dirty) {
      dirty.push_back({file, page});
    }
    return dirty;
  }

  std::optional<PageRun> NextResidentRun(FileId file, int64_t from) const {
    auto fit = index_.find(file);
    if (fit == index_.end()) {
      return std::nullopt;
    }
    const auto& runs = fit->second.runs;
    auto it = runs.upper_bound(from);
    if (it != runs.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > from) {
        return PageRun{prev->first, prev->second};
      }
    }
    if (it == runs.end()) {
      return std::nullopt;
    }
    return PageRun{it->first, it->second};
  }

  int64_t NextMissAfter(FileId file, int64_t page) const {
    const std::optional<PageRun> run = NextResidentRun(file, page);
    return run.has_value() && run->first <= page ? run->end() : page;
  }

  int64_t size_pages() const { return static_cast<int64_t>(entries_.size()); }
  int64_t pinned_pages() const { return pinned_; }
  int64_t in_flight_pages() const { return in_flight_; }
  const PageCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::list<PageKey>::iterator it;  // position in order_
    bool dirty = false;
    bool referenced = false;  // Clock reference bit
    bool pinned = false;
    bool in_flight = false;
  };
  struct FileIndex {
    std::map<int64_t, int64_t> runs;  // first page -> run length
    std::set<int64_t> dirty;
  };

  Entry& Resident(PageKey key, const char* op) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      throw std::logic_error(std::string(op) + " on a page the reference does not hold");
    }
    return it->second;
  }

  // A hit or a resident re-insert: LRU moves the page to the back, Clock
  // sets its reference bit.
  void Refresh(Entry& entry) {
    if (config_.policy == ReplacementPolicy::kLru) {
      order_.splice(order_.end(), order_, entry.it);
    } else {
      entry.referenced = true;
    }
  }

  // Walk from the front, skipping pinned and in-flight pages; Clock gives a
  // referenced page a second chance at the back.
  EvictedPage EvictOne() {
    for (int sweep = 0; sweep < 3; ++sweep) {
      auto it = order_.begin();
      while (it != order_.end()) {
        auto entry_it = entries_.find(*it);
        Entry& entry = entry_it->second;
        if (entry.pinned || entry.in_flight) {
          ++it;
          continue;
        }
        if (config_.policy == ReplacementPolicy::kClock && entry.referenced) {
          entry.referenced = false;
          auto next = std::next(it);
          order_.splice(order_.end(), order_, it);
          it = next;
          continue;
        }
        const EvictedPage evicted{*it, entry.dirty};
        order_.erase(it);
        entries_.erase(entry_it);
        IndexRemove(evicted.key);
        ++stats_.evictions;
        if (evicted.dirty) {
          ++stats_.dirty_evictions;
        }
        return evicted;
      }
    }
    throw std::logic_error("Insert found no evictable page");
  }

  void IndexInsert(PageKey key) {
    FileIndex& fi = index_[key.file];
    const int64_t page = key.page;
    auto next = fi.runs.lower_bound(page);
    auto prev = fi.runs.end();
    bool merge_left = false;
    if (next != fi.runs.begin()) {
      prev = std::prev(next);
      merge_left = prev->first + prev->second == page;
    }
    const bool merge_right = next != fi.runs.end() && next->first == page + 1;
    if (merge_left && merge_right) {
      prev->second += 1 + next->second;
      fi.runs.erase(next);
    } else if (merge_left) {
      prev->second += 1;
    } else if (merge_right) {
      const int64_t count = next->second + 1;
      fi.runs.erase(next);
      fi.runs.emplace(page, count);
    } else {
      fi.runs.emplace(page, 1);
    }
  }

  void IndexRemove(PageKey key) {
    auto fit = index_.find(key.file);
    FileIndex& fi = fit->second;
    const int64_t page = key.page;
    auto it = std::prev(fi.runs.upper_bound(page));
    const int64_t first = it->first;
    const int64_t count = it->second;
    fi.runs.erase(it);
    if (page > first) {
      fi.runs.emplace(first, page - first);
    }
    if (page + 1 < first + count) {
      fi.runs.emplace(page + 1, first + count - page - 1);
    }
    fi.dirty.erase(page);
    if (fi.runs.empty()) {
      index_.erase(fit);
    }
  }

  PageCacheConfig config_;
  std::unordered_map<PageKey, Entry, PageKeyHash> entries_;
  std::unordered_map<FileId, FileIndex> index_;
  std::list<PageKey> order_;  // head = least recently used / Clock hand
  PageCacheStats stats_;
  int64_t pinned_ = 0;
  int64_t in_flight_ = 0;
};

}  // namespace sled

#endif  // SLEDS_TESTS_REFERENCE_PAGE_CACHE_H_
