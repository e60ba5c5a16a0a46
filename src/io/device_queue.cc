#include "src/io/device_queue.h"

#include <algorithm>

#include "src/common/log.h"

namespace sled {

DeviceQueue::DeviceQueue(std::string name, DeviceQueueConfig config)
    : name_(std::move(name)), config_(config) {}

void DeviceQueue::Push(IoRequest req) {
  SLED_CHECK(req.count > 0, "empty I/O request");
  SLED_CHECK(pending_.empty() || pending_.back().id < req.id, "request ids must increase");
  pending_pages_[static_cast<size_t>(req.op)] += req.count;
  pending_.push_back(std::move(req));
  ++stats_.submitted;
  stats_.max_depth = std::max(stats_.max_depth, depth());
}

bool DeviceQueue::HasPending(int64_t id) const {
  for (const IoRequest& r : pending_) {
    if (r.id == id) {
      return true;
    }
  }
  return false;
}

TimePoint DeviceQueue::EarliestSubmit() const {
  SLED_CHECK(!pending_.empty(), "EarliestSubmit on empty queue");
  // The kernel submits in nondecreasing clock order, so the oldest request
  // (front) has the earliest submit time.
  return pending_.front().submit;
}

size_t DeviceQueue::PickPrimary(TimePoint at) const {
  size_t best = pending_.size();
  // Ranks: 0 = addressed, at or ahead of the sweep head; 1 = addressed,
  // behind the head (served after the wrap); addressless requests always rank
  // 0 with their submission order as the address (FIFO among themselves —
  // multi-level file systems that cannot map pages to a flat address degrade
  // to arrival order). kFifo ranks everything by id alone.
  int best_rank = 0;
  int64_t best_addr = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const IoRequest& r = pending_[i];
    if (r.submit > at) {
      continue;  // not yet submitted at the decision instant
    }
    int rank = 0;
    int64_t addr = 0;
    if (config_.policy == IoPolicy::kClook && r.device_addr >= 0) {
      rank = r.device_addr >= head_addr_ ? 0 : 1;
      addr = r.device_addr;
    }
    if (best == pending_.size() || rank < best_rank ||
        (rank == best_rank && (addr < best_addr || (addr == best_addr && r.id < pending_[best].id)))) {
      best = i;
      best_rank = rank;
      best_addr = addr;
    }
  }
  SLED_CHECK(best < pending_.size(), "PopBatch with no candidate at decision time");
  return best;
}

IoBatch DeviceQueue::PopBatch(TimePoint at) {
  const size_t primary_idx = PickPrimary(at);
  IoBatch batch;
  batch.parts.push_back(pending_[primary_idx]);
  pending_pages_[static_cast<size_t>(batch.parts.front().op)] -= batch.parts.front().count;
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(primary_idx));

  if (config_.policy == IoPolicy::kClook) {
    // Grow the batch by pending candidates that extend it contiguously in
    // both the file's page space and the device address space (unknown
    // addresses merge on page adjacency alone — a single-level store keeps
    // consecutive pages consecutive). Repeat until nothing attaches or the
    // merge bound is hit.
    bool grew = true;
    while (grew) {
      grew = false;
      int64_t pages = 0;
      for (const IoRequest& part : batch.parts) {
        pages += part.count;
      }
      const IoRequest& lo = batch.parts.front();
      const IoRequest& hi = batch.parts.back();
      for (size_t i = 0; i < pending_.size(); ++i) {
        const IoRequest& r = pending_[i];
        if (r.submit > at || r.file != lo.file || r.op != lo.op ||
            pages + r.count > kMaxMergePages) {
          continue;
        }
        const bool addr_known = r.device_addr >= 0;
        const bool extends_hi =
            r.first_page == hi.end_page() &&
            (addr_known ? r.device_addr == hi.device_end_addr : hi.device_addr < 0);
        const bool extends_lo =
            r.end_page() == lo.first_page &&
            (addr_known ? r.device_end_addr == lo.device_addr : lo.device_addr < 0);
        if (!extends_hi && !extends_lo) {
          continue;
        }
        pending_pages_[static_cast<size_t>(r.op)] -= r.count;
        if (extends_hi) {
          batch.parts.push_back(r);
        } else {
          batch.parts.insert(batch.parts.begin(), r);
        }
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats_.merged;
        grew = true;
        break;
      }
    }
  }

  // The merged request inherits the primary's identity (id, pid, submit) and
  // covers the union of the parts.
  batch.merged = batch.parts.front();
  const IoRequest& last = batch.parts.back();
  batch.merged.count = last.end_page() - batch.merged.first_page;
  batch.merged.device_end_addr = last.device_end_addr;
  if (batch.merged.device_end_addr >= 0) {
    head_addr_ = batch.merged.device_end_addr;
  }
  ++stats_.dispatched_batches;
  stats_.dispatched_pages += batch.merged.count;
  return batch;
}

std::vector<IoRequest> DeviceQueue::CancelMatching(
    const std::function<bool(const IoRequest&)>& pred) {
  std::vector<IoRequest> out;
  std::erase_if(pending_, [&](const IoRequest& r) {
    if (!pred(r)) {
      return false;
    }
    pending_pages_[static_cast<size_t>(r.op)] -= r.count;
    out.push_back(r);
    return true;
  });
  stats_.canceled += static_cast<int64_t>(out.size());
  return out;
}

void DeviceQueue::ForEachPending(const std::function<void(const IoRequest&)>& fn) const {
  for (const IoRequest& r : pending_) {
    fn(r);
  }
}

}  // namespace sled
