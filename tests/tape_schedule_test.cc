// Tests for the locate-aware tape scheduler and HSM batch recall.
#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/tape_schedule.h"
#include "src/fs/hsm_fs.h"

namespace sled {
namespace {

TEST(TapeScheduleTest, LocateBetweenIsSymmetricAndZeroOnSelf) {
  TapeDeviceConfig config;
  EXPECT_EQ(TapeDevice::LocateBetween(config, MiB(100), MiB(100)), Duration());
  const Duration ab = TapeDevice::LocateBetween(config, 0, MiB(500));
  const Duration ba = TapeDevice::LocateBetween(config, MiB(500), 0);
  EXPECT_EQ(ab, ba);
  EXPECT_GT(ab.ToSeconds(), config.locate_overhead.ToSeconds() * 0.99);
}

TEST(TapeScheduleTest, SerpentineAdjacencyIsCheap) {
  TapeDeviceConfig config;
  const int64_t track_len = config.capacity_bytes / config.num_tracks;
  // End of track 0 is physically adjacent to the start of track 1.
  const Duration turnaround =
      TapeDevice::LocateBetween(config, track_len - kPageSize, track_len + kPageSize);
  const Duration full_pass = TapeDevice::LocateBetween(config, 0, track_len + kPageSize);
  EXPECT_LT(turnaround, full_pass);
}

TEST(TapeScheduleTest, ScheduleServesEveryRequestOnce) {
  TapeDeviceConfig config;
  Rng rng(5);
  std::vector<TapeRequest> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back({rng.Uniform(0, config.capacity_bytes - MiB(64)), MiB(16)});
  }
  const std::vector<size_t> order = ScheduleTapeReads(config, 0, requests);
  ASSERT_EQ(order.size(), requests.size());
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);  // a permutation
  }
}

TEST(TapeScheduleTest, ScheduledOrderBeatsFifoOnScatteredRequests) {
  TapeDeviceConfig config;
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<TapeRequest> requests;
    for (int i = 0; i < 24; ++i) {
      requests.push_back({rng.Uniform(0, config.capacity_bytes - MiB(64)), MiB(8)});
    }
    std::vector<size_t> fifo(requests.size());
    std::iota(fifo.begin(), fifo.end(), 0);
    const std::vector<size_t> scheduled = ScheduleTapeReads(config, 0, requests);
    const Duration fifo_cost = TotalLocateTime(config, 0, requests, fifo);
    const Duration sched_cost = TotalLocateTime(config, 0, requests, scheduled);
    EXPECT_LE(sched_cost, fifo_cost);
  }
}

TEST(TapeScheduleTest, SingleRequestAndEmptySetDegenerate) {
  TapeDeviceConfig config;
  EXPECT_TRUE(ScheduleTapeReads(config, 0, {}).empty());
  const std::vector<TapeRequest> one = {{MiB(100), MiB(1)}};
  const auto order = ScheduleTapeReads(config, 0, one);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0u);
}

HsmFsConfig BatchConfig() {
  HsmFsConfig config;
  config.staging_disk.capacity_bytes = 2LL * 1000 * 1000 * 1000;
  config.num_tapes = 2;
  config.num_drives = 1;
  return config;
}

TEST(RecallBatchTest, ScheduledBatchIsNoSlowerThanFifo) {
  // Build two identical HSM worlds with many files migrated to the same
  // tapes, then recall them in pathological order.
  auto build = [&]() {
    auto fs = std::make_unique<HsmFs>("hsm", BatchConfig());
    std::vector<InodeNum> inos;
    const std::string data(static_cast<size_t>(MiB(8)), 'd');
    for (int i = 0; i < 12; ++i) {
      // Appended piece by piece: GCC 12 at -O3 gives a false -Wrestrict for the
      // inlined operator+(const char*, std::string&&).
      std::string name = "f";
      name += std::to_string(i);
      const InodeNum ino = fs->CreateFile(fs->root(), name).value();
      EXPECT_TRUE(fs->WriteBytes(ino, 0, std::span<const char>(data.data(), data.size())).ok());
      inos.push_back(ino);
    }
    for (InodeNum ino : inos) {
      EXPECT_TRUE(fs->Migrate(ino).ok());
    }
    return std::make_pair(std::move(fs), inos);
  };

  auto [fs_fifo, inos_fifo] = build();
  // Interleave the recall order across the two tapes (worst case for FIFO:
  // it alternates tapes, forcing an exchange per file).
  std::vector<InodeNum> shuffled = inos_fifo;
  std::vector<InodeNum> interleaved;
  for (size_t i = 0; i < shuffled.size() / 2; ++i) {
    interleaved.push_back(shuffled[i]);
    interleaved.push_back(shuffled[shuffled.size() / 2 + i]);
  }
  const Duration fifo = fs_fifo->RecallBatch(interleaved, /*scheduled=*/false).value();

  auto [fs_sched, inos_sched] = build();
  std::vector<InodeNum> interleaved2;
  for (size_t i = 0; i < inos_sched.size() / 2; ++i) {
    interleaved2.push_back(inos_sched[i]);
    interleaved2.push_back(inos_sched[inos_sched.size() / 2 + i]);
  }
  const Duration sched = fs_sched->RecallBatch(interleaved2, /*scheduled=*/true).value();

  // Scheduling groups by tape (2 exchanges instead of ~12) and orders within
  // each tape: a large win.
  EXPECT_LT(sched.ToSeconds() * 1.5, fifo.ToSeconds());
  // Everything actually recalled.
  for (InodeNum ino : inos_sched) {
    EXPECT_TRUE(fs_sched->IsStaged(ino));
  }
}

TEST(RecallBatchTest, SkipsStagedAndEmptyInput) {
  auto fs = std::make_unique<HsmFs>("hsm", BatchConfig());
  const InodeNum ino = fs->CreateFile(fs->root(), "f").value();
  const std::string data(static_cast<size_t>(MiB(1)), 'd');
  ASSERT_TRUE(fs->WriteBytes(ino, 0, std::span<const char>(data.data(), data.size())).ok());
  // Still staged: batch recall is a no-op.
  EXPECT_EQ(fs->RecallBatch({ino}).value(), Duration());
  EXPECT_EQ(fs->RecallBatch({}).value(), Duration());
}

}  // namespace
}  // namespace sled
