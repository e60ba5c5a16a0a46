// Replicated file system: one namespace striped over N heterogeneous storage
// devices, each stripe held by R of them (primary-copy replication).
//
// The paper treats a file's location as a fact to be *estimated* (§3); a
// replicated store turns it into a *choice*. Every page has several
// equivalent copies whose latency distributions differ — a quiet disk, an
// SSD mid-GC, an NFS server behind a slow WAN — and the right copy depends
// on which statistic the consumer cares about: the GC'd SSD wins on the mean
// but loses badly at the p99. RouteLevelOf makes that choice per ranking
// statistic, so the SLEDs a picker fetches already name the copy that
// minimizes *its* ordering, and the data plane serves reads from the same
// copy the estimate advertised.
//
// Fault story (primary-copy):
//   * writes go to every placed replica and charge the slowest (the ack
//     horizon of a synchronous-replication commit). A replica that fails
//     mid-write while another copy acks is marked stale for the affected
//     stripes and queued for re-sync; the write itself succeeds as long as
//     `replication_min` replicas acked (degraded write). A write no copy
//     took marks nothing: the copies still agree, and the retry rewrites all.
//   * reads try replicas in rank order, skipping stale copies; an erroring
//     replica fails over to the next candidate (degraded read) instead of
//     surfacing the error.
//   * BackgroundMaintenance() re-syncs stale stripes from a clean copy once
//     the stale replica answers again, clearing them for routing.
//   * optionally, reads are hedged: if the chosen replica's service time
//     exceeds a p99-derived deadline, the second-ranked replica is issued
//     the same read and the process pays min(straggler, deadline + hedge).
//
// Staleness is tracked at stripe granularity: a failed write dirties the
// whole stripe, recovery re-copies the whole stripe. This keeps routing and
// LevelRunLen O(1) per stripe and over-recovers at most stripe_pages - 1
// pages per failure.
#ifndef SLEDS_SRC_REPLICA_REPLICATED_FS_H_
#define SLEDS_SRC_REPLICA_REPLICATED_FS_H_

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/fs/filesystem.h"

namespace sled {

struct ReplicatedFsConfig {
  // Pages per stripe (the placement and staleness granule).
  int64_t stripe_pages = 64;
  // Copies per stripe; 0 (or anything >= the device count) means every
  // replica holds every stripe. Stripe s is placed on replicas
  // {(s + k) % N : k < R}.
  int replication_factor = 0;
  // Fewest replicas that must ack a write for it to succeed (degraded
  // write). Clamped to [1, R].
  int replication_min = 1;
  // Hedge reads: when the chosen replica's service time exceeds its
  // p99-derived deadline, issue the read to the second-ranked replica too
  // and pay min(straggler, deadline + hedge). $SLEDS_HEDGE_P99=1 turns this
  // on for the shell and benches.
  bool hedge_reads = false;
  // Deadline = hedge_deadline_factor * (health-adjusted p99 first-byte
  // latency) + transfer time at the health-adjusted bandwidth.
  double hedge_deadline_factor = 1.0;
  // The statistic the *data plane* routes by (LevelOf, reads). SLED
  // consumers route per their own rank_by via RouteLevelOf regardless.
  RankBy route_rank_by = RankBy::kMean;
};

// Running replication counters, for tests and the bench harness.
struct ReplicaStats {
  int64_t degraded_reads = 0;   // read runs served after skipping a better-ranked copy
  int64_t failed_writes = 0;    // per-replica write ops that failed
  int64_t degraded_writes = 0;  // write runs acked by fewer than all placed replicas
  int64_t hedges_issued = 0;
  int64_t hedge_wins = 0;
  int64_t recovered_bytes = 0;  // bytes re-synced by background recovery
};

class ReplicatedFs final : public FileSystem {
 public:
  // Each device becomes one storage level (replica index == local level).
  ReplicatedFs(std::string name, std::vector<std::unique_ptr<StorageDevice>> replicas,
               ReplicatedFsConfig config = {});

  // ---- FileSystem data plane ----
  Result<Duration> ReadPagesFromStore(InodeNum ino, int64_t first_page, int64_t count) override;
  Result<Duration> WritePagesToStore(InodeNum ino, int64_t first_page, int64_t count) override;
  int LevelOf(InodeNum ino, int64_t page) const override {
    return RouteLevelOf(ino, page, config_.route_rank_by);
  }
  int RouteLevelOf(InodeNum ino, int64_t page, RankBy rank_by) const override;
  int64_t LevelRunLen(InodeNum /*ino*/, int64_t page, int64_t max_pages) const override {
    // Routing decisions are per stripe, so a level run ends at the stripe
    // boundary at the latest (equal-level neighbours re-merge in the scan).
    const int64_t left = config_.stripe_pages - page % config_.stripe_pages;
    return left < max_pages ? left : max_pages;
  }
  std::vector<StorageLevelInfo> Levels() const override;
  // Several devices share the queue: no flat address space, no elevator.
  int64_t DeviceAddressOf(InodeNum /*ino*/, int64_t /*page*/) const override { return -1; }
  StorageDevice* PrimaryDevice() override { return nullptr; }
  DeviceHealth LevelHealth(int local_level) const override;
  Result<Duration> BackgroundMaintenance() override;

  void AttachObserver(Observer* obs) override;

  // ---- replication surface (tests, benches, shell) ----
  int num_replicas() const { return static_cast<int>(devices_.size()); }
  StorageDevice& replica(int index) { return *devices_[static_cast<size_t>(index)]; }
  const ReplicaStats& rstats() const { return rstats_; }
  // Stripes currently awaiting re-sync, across all replicas.
  int64_t stale_stripes() const;

 protected:
  Result<void> OnResize(InodeNum ino, int64_t old_size, int64_t new_size) override;

 private:
  // Candidate replica for one stripe, ordered by (unreachable-last, rank
  // statistic, replica index) — the index tie-break keeps equal-rank routing
  // deterministic and pinned to the lowest replica.
  struct Candidate {
    int replica = 0;
    double rank = 0.0;
    bool unreachable = false;
  };

  int64_t StripeOf(int64_t page) const { return page / config_.stripe_pages; }
  bool Placed(int replica, int64_t stripe) const;
  bool IsStale(int replica, InodeNum ino, int64_t stripe) const;
  void MarkStale(int replica, InodeNum ino, int64_t stripe);
  // Health-adjusted ranking statistic of one replica's nominal
  // characterization — the same arithmetic BuildSleds advertises.
  double RankStatOf(int replica, RankBy rank_by) const;
  // Stale-aware candidates for one stripe, sorted for routing.
  std::vector<Candidate> CandidatesFor(InodeNum ino, int64_t stripe, RankBy rank_by) const;
  // Device byte address of `page` on `replica` (every replica reserves the
  // file's full span, so the layout is position-identical across copies).
  Result<int64_t> ReplicaAddressOf(int replica, InodeNum ino, int64_t page) const;
  // Read one stripe run from the best candidate, failing over and
  // (optionally) hedging. Returns the process-visible service time.
  Result<Duration> ReadRun(InodeNum ino, int64_t first_page, int64_t run);
  // Write one stripe run to every placed replica, charging the slowest ack.
  Result<Duration> WriteRun(InodeNum ino, int64_t first_page, int64_t run);

  ReplicatedFsConfig config_;
  int replication_factor_ = 0;  // resolved: clamped to [1, N]
  int replication_min_ = 1;     // resolved: clamped to [1, replication_factor_]
  std::vector<std::unique_ptr<StorageDevice>> devices_;

  struct Region {
    std::vector<int64_t> base;  // per-replica region start (device bytes)
    int64_t pages = 0;          // logical pages the regions cover
  };
  std::unordered_map<InodeNum, Region> regions_;
  std::vector<int64_t> next_free_;  // per-replica bump pointer

  // stale_[r][ino] = stripes of `ino` whose copy on replica r is behind.
  // Ordered containers so recovery order (and therefore simulated time) is
  // deterministic.
  std::vector<std::map<InodeNum, std::set<int64_t>>> stale_;

  ReplicaStats rstats_;
};

}  // namespace sled

#endif  // SLEDS_SRC_REPLICA_REPLICATED_FS_H_
