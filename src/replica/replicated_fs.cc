#include "src/replica/replicated_fs.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/obs/observer.h"

namespace sled {

namespace {
// Rank assigned to an unreachable replica: worse than any real statistic so
// the sort pushes it behind every answering copy, but still finite so the
// index tie-break stays total.
constexpr double kUnreachableRank = 1.0e18;
}  // namespace

ReplicatedFs::ReplicatedFs(std::string name, std::vector<std::unique_ptr<StorageDevice>> replicas,
                           ReplicatedFsConfig config)
    : FileSystem(std::move(name)), config_(config), devices_(std::move(replicas)) {
  const int n = static_cast<int>(devices_.size());
  SLED_CHECK(n >= 1 && n <= 8, "replicated fs needs 1..8 devices, got %d", n);
  for (const auto& dev : devices_) {
    SLED_CHECK(dev != nullptr, "replicated fs given a null device");
  }
  SLED_CHECK(config_.stripe_pages >= 1, "stripe must be at least one page");
  replication_factor_ = config_.replication_factor;
  if (replication_factor_ <= 0 || replication_factor_ > n) {
    replication_factor_ = n;
  }
  replication_min_ = std::clamp(config_.replication_min, 1, replication_factor_);
  // Reserve the first page of each device for metadata, as the extent
  // allocator does.
  next_free_.assign(devices_.size(), kPageSize);
  stale_.resize(devices_.size());
}

void ReplicatedFs::AttachObserver(Observer* obs) {
  FileSystem::AttachObserver(obs);
  for (auto& dev : devices_) {
    dev->AttachObserver(obs);
  }
}

std::vector<StorageLevelInfo> ReplicatedFs::Levels() const {
  std::vector<StorageLevelInfo> levels;
  levels.reserve(devices_.size());
  for (const auto& dev : devices_) {
    levels.push_back({std::string(dev->name()), dev->Nominal()});
  }
  return levels;
}

DeviceHealth ReplicatedFs::LevelHealth(int local_level) const {
  if (local_level < 0 || local_level >= num_replicas()) {
    return DeviceHealth{};
  }
  return devices_[static_cast<size_t>(local_level)]->Health();
}

bool ReplicatedFs::Placed(int replica, int64_t stripe) const {
  const int n = num_replicas();
  // Stripe s lives on replicas {(s + k) % n : k < R}.
  const int delta = static_cast<int>((replica - stripe % n + n) % n);
  return delta < replication_factor_;
}

bool ReplicatedFs::IsStale(int replica, InodeNum ino, int64_t stripe) const {
  const auto& by_ino = stale_[static_cast<size_t>(replica)];
  const auto it = by_ino.find(ino);
  return it != by_ino.end() && it->second.contains(stripe);
}

void ReplicatedFs::MarkStale(int replica, InodeNum ino, int64_t stripe) {
  stale_[static_cast<size_t>(replica)][ino].insert(stripe);
}

int64_t ReplicatedFs::stale_stripes() const {
  int64_t total = 0;
  for (const auto& by_ino : stale_) {
    for (const auto& [ino, stripes] : by_ino) {
      total += static_cast<int64_t>(stripes.size());
    }
  }
  return total;
}

double ReplicatedFs::RankStatOf(int replica, RankBy rank_by) const {
  const StorageDevice& dev = *devices_[static_cast<size_t>(replica)];
  const HealthAdjustedLatency adj = AdjustForHealth(dev.Nominal(), dev.Health());
  switch (rank_by) {
    case RankBy::kP50:
      return adj.q.p50;
    case RankBy::kP90:
      return adj.q.p90;
    case RankBy::kP99:
      return adj.q.p99;
    case RankBy::kMean:
      break;
  }
  return adj.mean_s;
}

std::vector<ReplicatedFs::Candidate> ReplicatedFs::CandidatesFor(InodeNum ino, int64_t stripe,
                                                                 RankBy rank_by) const {
  std::vector<Candidate> cands;
  cands.reserve(static_cast<size_t>(replication_factor_));
  const int n = num_replicas();
  for (int k = 0; k < replication_factor_; ++k) {
    const int r = static_cast<int>((stripe + k) % n);
    if (IsStale(r, ino, stripe)) {
      continue;  // this copy is behind; it cannot serve the stripe
    }
    Candidate c;
    c.replica = r;
    c.unreachable = devices_[static_cast<size_t>(r)]->Health().unavailable;
    c.rank = c.unreachable ? kUnreachableRank : RankStatOf(r, rank_by);
    cands.push_back(c);
  }
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.unreachable != b.unreachable) {
      return b.unreachable;
    }
    if (a.rank != b.rank) {
      return a.rank < b.rank;
    }
    return a.replica < b.replica;
  });
  return cands;
}

int ReplicatedFs::RouteLevelOf(InodeNum ino, int64_t page, RankBy rank_by) const {
  const int64_t stripe = StripeOf(page);
  const std::vector<Candidate> cands = CandidatesFor(ino, stripe, rank_by);
  if (cands.empty()) {
    // Every placed copy is stale (each missed a write another one took):
    // fall back to the placement primary; reads will surface the error.
    return static_cast<int>(stripe % num_replicas());
  }
  return cands.front().replica;
}

Result<void> ReplicatedFs::OnResize(InodeNum ino, int64_t /*old_size*/, int64_t new_size) {
  if (new_size == 0) {
    regions_.erase(ino);
    for (auto& by_ino : stale_) {
      by_ino.erase(ino);  // nothing left to re-sync
    }
    return Result<void>::Ok();
  }
  const int64_t span = (new_size + kPageSize - 1) / kPageSize;
  Region& reg = regions_[ino];
  if (span <= reg.pages) {
    return Result<void>::Ok();  // shrink: keep the regions (bump allocator)
  }
  // Grow: reserve a fresh contiguous region on every replica covering the
  // whole span (the old one is abandoned — bump allocation, like the extent
  // allocator). All replicas allocate in lockstep, so a page's device
  // address is identical across copies. Check every replica before
  // committing any, so a kNoSpc on one leaves all bump pointers untouched.
  for (size_t r = 0; r < devices_.size(); ++r) {
    if (next_free_[r] + span * kPageSize > devices_[r]->capacity_bytes()) {
      return Err::kNoSpc;
    }
  }
  reg.base.assign(devices_.size(), 0);
  for (size_t r = 0; r < devices_.size(); ++r) {
    reg.base[r] = next_free_[r];
    next_free_[r] += span * kPageSize;
  }
  reg.pages = span;
  return Result<void>::Ok();
}

Result<int64_t> ReplicatedFs::ReplicaAddressOf(int replica, InodeNum ino, int64_t page) const {
  const auto it = regions_.find(ino);
  if (it == regions_.end() || page >= it->second.pages) {
    return Err::kInval;
  }
  return it->second.base[static_cast<size_t>(replica)] + page * kPageSize;
}

Result<Duration> ReplicatedFs::ReadRun(InodeNum ino, int64_t first_page, int64_t run) {
  const int64_t stripe = StripeOf(first_page);
  const int64_t nbytes = run * kPageSize;
  const std::vector<Candidate> cands = CandidatesFor(ino, stripe, config_.route_rank_by);
  if (cands.empty()) {
    return Err::kIo;  // no surviving copy
  }
  Err last = Err::kIo;
  for (size_t i = 0; i < cands.size(); ++i) {
    const int r = cands[i].replica;
    SLED_ASSIGN_OR_RETURN(const int64_t addr, ReplicaAddressOf(r, ino, first_page));
    auto res = devices_[static_cast<size_t>(r)]->Read(addr, nbytes);
    if (!res.ok()) {
      last = res.error();
      continue;  // fail over to the next-ranked copy
    }
    Duration t = res.value();
    if (i > 0) {
      ++rstats_.degraded_reads;
      if (observer() != nullptr) {
        observer()->ReplicaDegradedRead(name(), r, nbytes);
      }
    }
    // Hedge: the chosen replica answered, but slower than its own estimate
    // promised. Issue the read to the runner-up and take the earlier finish;
    // the hedge starts at the deadline, so it pays deadline + its own time.
    if (config_.hedge_reads && i + 1 < cands.size() && !cands[i + 1].unreachable) {
      const StorageDevice& dev = *devices_[static_cast<size_t>(r)];
      const HealthAdjustedLatency adj = AdjustForHealth(dev.Nominal(), dev.Health());
      const Duration deadline = SecondsF(adj.q.p99 * config_.hedge_deadline_factor) +
                                TransferTime(nbytes, adj.bandwidth_bps);
      if (t > deadline) {
        ++rstats_.hedges_issued;
        bool win = false;
        const int hr = cands[i + 1].replica;
        SLED_ASSIGN_OR_RETURN(const int64_t haddr, ReplicaAddressOf(hr, ino, first_page));
        auto hedge = devices_[static_cast<size_t>(hr)]->Read(haddr, nbytes);
        if (hedge.ok() && deadline + hedge.value() < t) {
          t = deadline + hedge.value();
          win = true;
          ++rstats_.hedge_wins;
        }
        if (observer() != nullptr) {
          observer()->ReplicaHedge(name(), win);
        }
      }
    }
    return t;
  }
  return last;
}

Result<Duration> ReplicatedFs::WriteRun(InodeNum ino, int64_t first_page, int64_t run) {
  const int64_t stripe = StripeOf(first_page);
  const int64_t nbytes = run * kPageSize;
  const int n = num_replicas();
  Duration slowest;
  std::vector<int> missed;
  Err last = Err::kIo;
  for (int k = 0; k < replication_factor_; ++k) {
    const int r = static_cast<int>((stripe + k) % n);
    SLED_ASSIGN_OR_RETURN(const int64_t addr, ReplicaAddressOf(r, ino, first_page));
    auto res = devices_[static_cast<size_t>(r)]->Write(addr, nbytes);
    if (res.ok()) {
      slowest = std::max(slowest, res.value());
    } else {
      last = res.error();
      ++rstats_.failed_writes;
      missed.push_back(r);
    }
  }
  const int acks = replication_factor_ - static_cast<int>(missed.size());
  // A copy that missed the write is behind only if another copy took it:
  // the whole stripe is then stale on it until background recovery re-syncs
  // it. When no copy acked, every copy still agrees (on the old data), and
  // the caller's retry rewrites them all.
  if (acks > 0) {
    for (const int r : missed) {
      MarkStale(r, ino, stripe);
      if (observer() != nullptr) {
        observer()->ReplicaStale(name(), r, nbytes);
      }
    }
  }
  if (acks < replication_min_) {
    return last;  // too few copies committed — the write itself fails
  }
  if (!missed.empty()) {
    ++rstats_.degraded_writes;
  }
  // Primary-copy commit: the caller waits for every (surviving) ack, so the
  // charge is the slowest replica, not the sum.
  return slowest;
}

Result<Duration> ReplicatedFs::ReadPagesFromStore(InodeNum ino, int64_t first_page,
                                                  int64_t count) {
  Duration total;
  int64_t page = first_page;
  const int64_t end = first_page + count;
  while (page < end) {
    const int64_t run = LevelRunLen(ino, page, end - page);
    SLED_ASSIGN_OR_RETURN(const Duration t, ReadRun(ino, page, run));
    total += t;
    page += run;
  }
  return total;
}

Result<Duration> ReplicatedFs::WritePagesToStore(InodeNum ino, int64_t first_page,
                                                 int64_t count) {
  Duration total;
  int64_t page = first_page;
  const int64_t end = first_page + count;
  while (page < end) {
    const int64_t run = LevelRunLen(ino, page, end - page);
    SLED_ASSIGN_OR_RETURN(const Duration t, WriteRun(ino, page, run));
    total += t;
    page += run;
  }
  return total;
}

Result<Duration> ReplicatedFs::BackgroundMaintenance() {
  Duration total;
  for (int r = 0; r < num_replicas(); ++r) {
    auto& by_ino = stale_[static_cast<size_t>(r)];
    if (by_ino.empty()) {
      continue;
    }
    if (devices_[static_cast<size_t>(r)]->Health().unavailable) {
      continue;  // still inside its outage window; retry next pass
    }
    for (auto it = by_ino.begin(); it != by_ino.end();) {
      const InodeNum ino = it->first;
      std::set<int64_t>& stripes = it->second;
      const auto reg = regions_.find(ino);
      if (reg == regions_.end()) {
        it = by_ino.erase(it);  // truncated or unlinked since the failure
        continue;
      }
      for (auto sit = stripes.begin(); sit != stripes.end();) {
        const int64_t stripe = *sit;
        const int64_t first = stripe * config_.stripe_pages;
        if (first >= reg->second.pages) {
          sit = stripes.erase(sit);  // the file shrank past this stripe
          continue;
        }
        const int64_t pages = std::min(config_.stripe_pages, reg->second.pages - first);
        const int64_t nbytes = pages * kPageSize;
        // Re-copy from the best-ranked clean replica (r itself is stale, so
        // it is never a candidate).
        bool synced = false;
        for (const Candidate& c : CandidatesFor(ino, stripe, config_.route_rank_by)) {
          if (c.unreachable) {
            break;  // candidates are sorted: no reachable source remains
          }
          auto src = devices_[static_cast<size_t>(c.replica)]->Read(
              reg->second.base[static_cast<size_t>(c.replica)] + first * kPageSize, nbytes);
          if (!src.ok()) {
            continue;
          }
          total += src.value();
          auto dst = devices_[static_cast<size_t>(r)]->Write(
              reg->second.base[static_cast<size_t>(r)] + first * kPageSize, nbytes);
          if (!dst.ok()) {
            break;  // destination failed again; keep the stripe stale
          }
          total += dst.value();
          rstats_.recovered_bytes += nbytes;
          if (observer() != nullptr) {
            observer()->ReplicaRecovery(name(), r, nbytes);
          }
          synced = true;
          break;
        }
        sit = synced ? stripes.erase(sit) : std::next(sit);
      }
      it = stripes.empty() ? by_ino.erase(it) : std::next(it);
    }
  }
  return total;
}

}  // namespace sled
