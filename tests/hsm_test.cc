// Tests for the hierarchical storage management file system.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/fs/hsm_fs.h"

namespace sled {
namespace {

HsmFsConfig SmallConfig() {
  HsmFsConfig config;
  config.staging_disk.capacity_bytes = 512 * kPageSize;
  config.staging_capacity_bytes = 256 * kPageSize;
  config.num_tapes = 3;
  config.num_drives = 1;
  return config;
}

std::unique_ptr<HsmFs> MakeHsm(HsmFsConfig config = SmallConfig()) {
  return std::make_unique<HsmFs>("hsm", config);
}

InodeNum MakeFile(HsmFs& fs, const std::string& name, int64_t size) {
  const InodeNum ino = fs.CreateFile(fs.root(), name).value();
  const std::string data(static_cast<size_t>(size), 'h');
  EXPECT_TRUE(fs.WriteBytes(ino, 0, std::span<const char>(data.data(), data.size())).ok());
  return ino;
}

TEST(HsmFsTest, NewFilesAreStagedOnDisk) {
  auto fs = MakeHsm();
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  EXPECT_TRUE(fs->IsStaged(f));
  EXPECT_FALSE(fs->IsOnTape(f));
  EXPECT_EQ(fs->LevelOf(f, 0), HsmFs::kLevelDisk);
  EXPECT_EQ(fs->staged_bytes(), 8 * kPageSize);
}

TEST(HsmFsTest, MigrateMovesFileToTape) {
  auto fs = MakeHsm();
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  const Duration t = fs->Migrate(f).value();
  EXPECT_GT(t.ToSeconds(), 1.0);  // tape mount dominates
  EXPECT_FALSE(fs->IsStaged(f));
  EXPECT_TRUE(fs->IsOnTape(f));
  EXPECT_EQ(fs->staged_bytes(), 0);
  // The tape it migrated to is still mounted, so the file is "near".
  EXPECT_EQ(fs->LevelOf(f, 0), HsmFs::kLevelTapeNear);
}

TEST(HsmFsTest, RecallBringsFileBack) {
  auto fs = MakeHsm();
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  (void)fs->Migrate(f).value();
  const Duration t = fs->Recall(f).value();
  EXPECT_GT(t.ToSeconds(), 0.0);
  EXPECT_TRUE(fs->IsStaged(f));
  EXPECT_TRUE(fs->IsOnTape(f));  // tape copy remains
  // Contents survive the round trip.
  EXPECT_EQ(fs->ContentView(f).value().substr(0, 8), std::string(8, 'h'));
}

TEST(HsmFsTest, ReadOfOfflineFileAutoRecalls) {
  auto fs = MakeHsm();
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  (void)fs->Migrate(f).value();
  const Duration t = fs->ReadPagesFromStore(f, 0, 1).value();
  EXPECT_GT(t.ToSeconds(), 1.0);  // implied recall
  EXPECT_TRUE(fs->IsStaged(f));
  // Second read is cheap: staged on disk now.
  const Duration t2 = fs->ReadPagesFromStore(f, 0, 1).value();
  EXPECT_LT(t2.ToSeconds(), 0.1);
}

TEST(HsmFsTest, DirectTapeReadWhenStagingDisabled) {
  HsmFsConfig config = SmallConfig();
  config.stage_on_read = false;
  auto fs = MakeHsm(config);
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  (void)fs->Migrate(f).value();
  (void)fs->ReadPagesFromStore(f, 0, 1).value();
  EXPECT_FALSE(fs->IsStaged(f));  // stays offline
}

TEST(HsmFsTest, WriteToOfflineFileFails) {
  auto fs = MakeHsm();
  const InodeNum f = MakeFile(*fs, "f", 8 * kPageSize);
  (void)fs->Migrate(f).value();
  EXPECT_EQ(fs->WritePagesToStore(f, 0, 1).error(), Err::kNotSup);
  const std::string b(10, 'x');
  EXPECT_EQ(fs->WriteBytes(f, 0, std::span<const char>(b.data(), b.size())).error(),
            Err::kNotSup);
  // After recall, writes succeed and dirty the staged copy.
  (void)fs->Recall(f).value();
  EXPECT_TRUE(fs->WritePagesToStore(f, 0, 1).ok());
}

TEST(HsmFsTest, LevelReflectsMountState) {
  auto fs = MakeHsm();
  const InodeNum a = MakeFile(*fs, "a", 4 * kPageSize);
  const InodeNum b = MakeFile(*fs, "b", 4 * kPageSize);
  (void)fs->Migrate(a).value();
  (void)fs->Migrate(b).value();
  // Both migrations picked the emptiest tape; with equal fill they spread.
  // Access b's tape so it is the mounted one.
  (void)fs->ReadPagesFromStore(b, 0, 1).value();
  ASSERT_TRUE(fs->IsStaged(b));  // recalled by the read
  if (fs->TapeOf(a) != fs->TapeOf(b)) {
    EXPECT_EQ(fs->LevelOf(a, 0), HsmFs::kLevelTapeFar);
  }
}

TEST(HsmFsTest, StagingEvictionMigratesLruFiles) {
  HsmFsConfig config = SmallConfig();
  config.staging_capacity_bytes = 32 * kPageSize;
  auto fs = MakeHsm(config);
  const InodeNum a = MakeFile(*fs, "a", 16 * kPageSize);
  const InodeNum b = MakeFile(*fs, "b", 16 * kPageSize);
  EXPECT_EQ(fs->staged_bytes(), 32 * kPageSize);
  // Creating c exceeds the budget: a (LRU) is pushed to tape.
  const InodeNum c = MakeFile(*fs, "c", 16 * kPageSize);
  EXPECT_FALSE(fs->IsStaged(a));
  EXPECT_TRUE(fs->IsOnTape(a));
  EXPECT_TRUE(fs->IsStaged(b));
  EXPECT_TRUE(fs->IsStaged(c));
  EXPECT_LE(fs->staged_bytes(), 32 * kPageSize);
}

TEST(HsmFsTest, LevelsExposeThreeTiers) {
  auto fs = MakeHsm();
  const auto levels = fs->Levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[HsmFs::kLevelDisk].name, "hsm-disk");
  EXPECT_EQ(levels[HsmFs::kLevelTapeNear].name, "tape-near");
  EXPECT_EQ(levels[HsmFs::kLevelTapeFar].name, "tape-far");
  // Latency strictly increases across tiers.
  EXPECT_LT(levels[0].nominal.latency, levels[1].nominal.latency);
  EXPECT_LT(levels[1].nominal.latency, levels[2].nominal.latency);
  // The far tier includes mount time (tens of seconds).
  EXPECT_GT(levels[2].nominal.latency.ToSeconds(), 30.0);
}

TEST(HsmFsTest, UnlinkReleasesStaging) {
  auto fs = MakeHsm();
  (void)MakeFile(*fs, "f", 8 * kPageSize);
  EXPECT_EQ(fs->staged_bytes(), 8 * kPageSize);
  ASSERT_TRUE(fs->Unlink(fs->root(), "f").ok());
  EXPECT_EQ(fs->staged_bytes(), 0);
}

TEST(HsmFsTest, MigrateSpreadsAcrossTapesBySpace) {
  auto fs = MakeHsm();
  const InodeNum a = MakeFile(*fs, "a", 8 * kPageSize);
  const InodeNum b = MakeFile(*fs, "b", 8 * kPageSize);
  (void)fs->Migrate(a).value();
  (void)fs->Migrate(b).value();
  // Second migration goes to a different (emptier) tape.
  EXPECT_NE(fs->TapeOf(a), fs->TapeOf(b));
}

TEST(HsmFsTest, RecallOfNeverMigratedUnstagedFileFails) {
  auto fs = MakeHsm();
  const InodeNum f = fs->CreateFile(fs->root(), "empty").value();
  // Zero-size file: neither staged nor on tape; recall has nothing to do.
  EXPECT_EQ(fs->Recall(f).error(), Err::kIo);
}

}  // namespace
}  // namespace sled
