#include "src/sleds/picker.h"

#include <algorithm>
#include <string_view>

#include "src/common/log.h"

namespace sled {
namespace {

constexpr int64_t kScanBlock = 4 * kKiB;

}  // namespace

SledsPicker::SledsPicker(SimKernel& kernel, Process& process, int fd, PickerOptions options)
    : kernel_(kernel), process_(process), fd_(fd), options_(options) {}

void SledsPicker::PruneUnavailable(SledVector& sleds) {
  // Accumulates into pruned_bytes_ across refreshes; only a full plan
  // rebuild (BuildPlan) resets the counter, as the header documents.
  if (!options_.prune_unavailable) {
    return;
  }
  std::erase_if(sleds, [this](const Sled& s) {
    if (s.unavailable) {
      pruned_bytes_ += s.length;
      return true;
    }
    return false;
  });
}

Result<std::unique_ptr<SledsPicker>> SledsPicker::Create(SimKernel& kernel, Process& process,
                                                         int fd, PickerOptions options) {
  if (options.preferred_chunk_bytes <= 0 || options.element_size < 0 ||
      options.element_base < 0) {
    return Err::kInval;
  }
  if (options.element_size > 0) {
    // Picks must cover whole elements: round the chunk down to a multiple.
    options.preferred_chunk_bytes =
        std::max(options.element_size,
                 (options.preferred_chunk_bytes / options.element_size) * options.element_size);
  }
  std::unique_ptr<SledsPicker> picker(new SledsPicker(kernel, process, fd, options));
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, kernel.Fstat(process, fd));
  picker->file_size_ = attr.size;
  SLED_RETURN_IF_ERROR(picker->BuildPlan());
  return picker;
}

Result<SledVector> SledsPicker::FetchSleds(
    const std::vector<std::pair<int64_t, int64_t>>& ranges) {
  if (ranges.empty()) {
    // Forward rank_by as the route rank: a replicated store then advertises,
    // for each section, the copy that minimizes the statistic this plan is
    // ordered by (rank_by-aware replica routing).
    return kernel_.IoctlSledsGet(process_, fd_, options_.rank_by);
  }
  // Merge the requested ranges into disjoint intervals and issue one ranged
  // FSLEDS_GET per interval. The kernel charges per page actually scanned, so
  // a refresh pays for the not-yet-consumed part of the plan instead of
  // re-scanning the whole file.
  std::vector<std::pair<int64_t, int64_t>> merged(ranges);
  std::sort(merged.begin(), merged.end());
  size_t tail = 0;
  for (size_t i = 1; i < merged.size(); ++i) {
    if (merged[i].first <= merged[tail].second) {
      merged[tail].second = std::max(merged[tail].second, merged[i].second);
    } else {
      merged[++tail] = merged[i];
    }
  }
  merged.resize(tail + 1);
  SledVector all;
  for (const auto& [lo, hi] : merged) {
    SLED_ASSIGN_OR_RETURN(SledVector part,
                          kernel_.IoctlSledsGet(process_, fd_, lo, hi - lo, options_.rank_by));
    // The ranged get returns whole pages; trim the page overhang so each
    // SLED stays inside its own interval (intervals are disjoint, so a SLED
    // can then only match this interval's ranges below).
    for (Sled s : part) {
      const int64_t begin = std::max(s.offset, lo);
      const int64_t end = std::min(s.offset + s.length, hi);
      if (begin < end) {
        s.offset = begin;
        s.length = end - begin;
        all.push_back(s);
      }
    }
  }
  // Clip each SLED against the requested byte ranges.
  SledVector clipped;
  for (const Sled& s : all) {
    for (const auto& [lo, hi] : ranges) {
      const int64_t begin = std::max(s.offset, lo);
      const int64_t end = std::min(s.offset + s.length, hi);
      if (begin < end) {
        Sled part = s;
        part.offset = begin;
        part.length = end - begin;
        clipped.push_back(part);
      }
    }
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Sled& a, const Sled& b) { return a.offset < b.offset; });
  return clipped;
}

Result<void> SledsPicker::BuildPlan() {
  pruned_bytes_ = 0;
  SLED_ASSIGN_OR_RETURN(SledVector sleds, FetchSleds({}));
  if (options_.record_oriented) {
    SLED_RETURN_IF_ERROR(AdjustToRecordBoundaries(sleds));
  }
  if (options_.element_size > 0) {
    SLED_RETURN_IF_ERROR(AdjustToElementBoundaries(sleds));
  }
  PruneUnavailable(sleds);
  SortByPickOrder(sleds, options_.rank_by);
  plan_ = std::move(sleds);
  current_ = 0;
  position_ = plan_.empty() ? 0 : plan_.front().offset;
  return Result<void>::Ok();
}

Result<int64_t> SledsPicker::ScanForward(int64_t from, int64_t limit) {
  int64_t pos = from;
  while (pos < limit) {
    const int64_t want = std::min<int64_t>(kScanBlock, limit - pos);
    SLED_RETURN_IF_ERROR(kernel_.Lseek(process_, fd_, pos, Whence::kSet));
    SLED_ASSIGN_OR_RETURN(std::string_view block, kernel_.ReadView(process_, fd_, want));
    if (block.empty()) {
      break;
    }
    if (const size_t hit = block.find(options_.record_separator);
        hit != std::string_view::npos) {
      return pos + static_cast<int64_t>(hit) + 1;
    }
    pos += static_cast<int64_t>(block.size());
  }
  return static_cast<int64_t>(-1);
}

Result<int64_t> SledsPicker::ScanBackward(int64_t from, int64_t limit) {
  int64_t end = from;
  while (end > limit) {
    const int64_t want = std::min<int64_t>(kScanBlock, end - limit);
    const int64_t start = end - want;
    SLED_RETURN_IF_ERROR(kernel_.Lseek(process_, fd_, start, Whence::kSet));
    SLED_ASSIGN_OR_RETURN(std::string_view block, kernel_.ReadView(process_, fd_, want));
    if (block.empty()) {
      break;
    }
    if (const size_t hit = block.rfind(options_.record_separator);
        hit != std::string_view::npos) {
      return start + static_cast<int64_t>(hit) + 1;
    }
    end = start;
  }
  return static_cast<int64_t>(-1);
}

namespace {

// The edge-adjustment skeleton both modes share. Each boundary between two
// SLEDs that rank differently is handed to `move_edge(i, b, cheap_right)`
// (b separates sleds[i] and sleds[i+1]; cheap_right says the right side is the
// low-latency one), which returns where the boundary goes. The boundaries are
// then kept monotone — a tiny low-latency SLED can collapse to nothing — and
// the vector is rebuilt, clamped to the file end.
template <typename MoveEdge>
Result<void> AdjustEdges(SledVector& sleds, RankBy rank_by, MoveEdge&& move_edge) {
  if (sleds.size() < 2) {
    return Result<void>::Ok();
  }
  std::vector<int64_t> boundary(sleds.size() - 1);
  for (size_t i = 0; i + 1 < sleds.size(); ++i) {
    boundary[i] = sleds[i].offset + sleds[i].length;
  }
  for (size_t i = 0; i + 1 < sleds.size(); ++i) {
    const double left = RankLatency(sleds[i], rank_by);
    const double right = RankLatency(sleds[i + 1], rank_by);
    if (right < left || left < right) {
      SLED_ASSIGN_OR_RETURN(boundary[i], move_edge(i, boundary[i], right < left));
    }
  }
  for (size_t i = 1; i < boundary.size(); ++i) {
    boundary[i] = std::max(boundary[i], boundary[i - 1]);
  }
  const int64_t file_end = sleds.back().offset + sleds.back().length;
  SledVector rebuilt;
  for (size_t i = 0; i < sleds.size(); ++i) {
    const int64_t begin = i == 0 ? sleds.front().offset : boundary[i - 1];
    const int64_t end = i + 1 == sleds.size() ? file_end : std::min(boundary[i], file_end);
    if (end > begin) {
      Sled s = sleds[i];
      s.offset = begin;
      s.length = end - begin;
      rebuilt.push_back(s);
    }
  }
  sleds = std::move(rebuilt);
  return Result<void>::Ok();
}

}  // namespace

Result<void> SledsPicker::AdjustToRecordBoundaries(SledVector& sleds) {
  return AdjustEdges(
      sleds, options_.rank_by, [&](size_t i, int64_t b, bool cheap_right) -> Result<int64_t> {
        int64_t adjusted = -1;
        if (cheap_right) {
          // Left edge of a low-latency SLED: push the leading record fragment
          // out to the expensive neighbour by scanning forward (on the cheap
          // side) for the first record start.
          const int64_t limit = std::min(sleds[i + 1].offset + sleds[i + 1].length,
                                         b + options_.max_record_scan_bytes);
          SLED_ASSIGN_OR_RETURN(adjusted, ScanForward(b, limit));
        } else {
          // Right edge of a low-latency SLED: push the trailing fragment out
          // by scanning backward (still on the cheap side) for the last record
          // end.
          const int64_t limit = std::max(sleds[i].offset, b - options_.max_record_scan_bytes);
          SLED_ASSIGN_OR_RETURN(adjusted, ScanBackward(b, limit));
        }
        return adjusted >= 0 ? adjusted : b;  // no separator: keep the page edge
      });
}

Result<void> SledsPicker::AdjustToElementBoundaries(SledVector& sleds) const {
  const int64_t elem = options_.element_size;
  const int64_t base = options_.element_base;
  return AdjustEdges(sleds, options_.rank_by,
                     [&](size_t, int64_t b, bool cheap_right) -> Result<int64_t> {
                       if (b <= base) {
                         return b;  // inside the header region; the grid starts at base
                       }
                       // Round toward the expensive side: up at a cheap SLED's
                       // left edge, down at its right edge.
                       const int64_t rel = b - base;
                       return base + (cheap_right ? (rel + elem - 1) / elem : rel / elem) * elem;
                     });
}

Result<void> SledsPicker::Refresh() {
  // Remaining work: the tail of the current segment plus all later segments.
  std::vector<std::pair<int64_t, int64_t>> remaining;
  if (current_ < plan_.size()) {
    const Sled& cur = plan_[current_];
    if (position_ < cur.offset + cur.length) {
      remaining.emplace_back(position_, cur.offset + cur.length);
    }
    for (size_t i = current_ + 1; i < plan_.size(); ++i) {
      remaining.emplace_back(plan_[i].offset, plan_[i].offset + plan_[i].length);
    }
  }
  if (remaining.empty()) {
    return Result<void>::Ok();
  }
  SLED_ASSIGN_OR_RETURN(SledVector fresh, FetchSleds(remaining));
  // Record adjustment is applied at init only; refreshed estimates keep page
  // granularity (the separator scan already happened once). Element
  // alignment is arithmetic, so it is re-applied.
  if (options_.element_size > 0) {
    SLED_RETURN_IF_ERROR(AdjustToElementBoundaries(fresh));
  }
  PruneUnavailable(fresh);
  SortByPickOrder(fresh, options_.rank_by);
  plan_ = std::move(fresh);
  current_ = 0;
  position_ = plan_.empty() ? 0 : plan_.front().offset;
  return Result<void>::Ok();
}

Result<SledsPicker::Pick> SledsPicker::NextRead() {
  if (options_.refresh_every_n_picks > 0 &&
      picks_since_refresh_ >= options_.refresh_every_n_picks) {
    SLED_RETURN_IF_ERROR(Refresh());
    picks_since_refresh_ = 0;
  }
  while (current_ < plan_.size() && position_ >= plan_[current_].offset + plan_[current_].length) {
    ++current_;
    if (current_ < plan_.size()) {
      position_ = plan_[current_].offset;
    }
  }
  if (current_ >= plan_.size()) {
    return Pick{0, 0};
  }
  const Sled& seg = plan_[current_];
  const int64_t len = std::min(options_.preferred_chunk_bytes, seg.offset + seg.length - position_);
  Pick pick{position_, len};
  position_ += len;
  ++picks_since_refresh_;
  return pick;
}

int64_t SledsPicker::remaining_bytes() const {
  if (current_ >= plan_.size()) {
    return 0;
  }
  int64_t total = plan_[current_].offset + plan_[current_].length - position_;
  for (size_t i = current_ + 1; i < plan_.size(); ++i) {
    total += plan_[i].length;
  }
  return total;
}

}  // namespace sled
