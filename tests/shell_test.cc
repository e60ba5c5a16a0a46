// Tests for the sledsh scriptable shell — also a broad end-to-end pass over
// the whole stack through its highest-level interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "src/workload/shell.h"

namespace sled {
namespace {

TEST(ShellTest, HelpAndUnknown) {
  SledShell shell;
  EXPECT_NE(shell.Execute("help").find("commands:"), std::string::npos);
  EXPECT_NE(shell.Execute("frobnicate").find("unknown command"), std::string::npos);
  EXPECT_EQ(shell.Execute(""), "");
}

TEST(ShellTest, MountAndGenerate) {
  SledShell shell;
  EXPECT_NE(shell.Execute("mount ext2 /data").find("mounted ext2"), std::string::npos);
  EXPECT_NE(shell.Execute("genfile /data/t.txt 2").find("wrote"), std::string::npos);
  EXPECT_NE(shell.Execute("stat /data/t.txt").find("2097152 bytes"), std::string::npos);
  EXPECT_NE(shell.Execute("ls /data").find("t.txt"), std::string::npos);
  EXPECT_NE(shell.Execute("mount bogus /x").find("unknown fs kind"), std::string::npos);
}

TEST(ShellTest, CatAndSledsPanel) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 4");
  (void)shell.Execute("dropcaches");
  const std::string cold = shell.Execute("cat /data/t.txt");
  EXPECT_NE(cold.find("read 4194304 bytes"), std::string::npos);
  EXPECT_NE(cold.find("1024 major faults"), std::string::npos);
  const std::string warm = shell.Execute("cat /data/t.txt");
  EXPECT_NE(warm.find("0 major faults"), std::string::npos);
  const std::string panel = shell.Execute("sleds /data/t.txt");
  EXPECT_NE(panel.find("memory"), std::string::npos);
  EXPECT_NE(panel.find("estimated total delivery time"), std::string::npos);
  EXPECT_NE(shell.Execute("delivery /data/t.txt").find("estimated delivery"),
            std::string::npos);
}

TEST(ShellTest, WcAndGrepFlags) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 1");
  const std::string plain = shell.Execute("wc /data/t.txt");
  const std::string sleds = shell.Execute("wc -s /data/t.txt");
  const std::string mmapped = shell.Execute("wc -m /data/t.txt");
  // All agree on the counts (the part before the parenthesis).
  EXPECT_EQ(plain.substr(0, plain.find('(')), sleds.substr(0, sleds.find('(')));
  EXPECT_EQ(plain.substr(0, plain.find('(')), mmapped.substr(0, mmapped.find('(')));

  EXPECT_NE(shell.Execute("grep -q zzzzzzzzz /data/t.txt").find("no match"),
            std::string::npos);
  EXPECT_NE(shell.Execute("grep").find("usage"), std::string::npos);
  EXPECT_NE(shell.Execute("wc").find("usage"), std::string::npos);
}

TEST(ShellTest, FindWithLatencyPredicate) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/a.txt 2");
  (void)shell.Execute("genfile /data/b.dat 2");
  const std::string all = shell.Execute("find /data");
  EXPECT_NE(all.find("/data/a.txt"), std::string::npos);
  EXPECT_NE(all.find("/data/b.dat"), std::string::npos);
  const std::string named = shell.Execute("find /data -name .txt");
  EXPECT_NE(named.find("a.txt"), std::string::npos);
  EXPECT_EQ(named.find("b.dat"), std::string::npos);
  // Freshly written files are cached: everything is "fast".
  const std::string fast = shell.Execute("find /data -latency -1");
  EXPECT_NE(fast.find("(2 of 2 files"), std::string::npos);
  (void)shell.Execute("dropcaches");
  const std::string slow = shell.Execute("find /data -latency -m1");
  EXPECT_NE(slow.find("(0 of 2 files; 2 pruned"), std::string::npos);
  EXPECT_NE(shell.Execute("find /data -latency xyz").find("bad latency"), std::string::npos);
}

TEST(ShellTest, LockLifecycle) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 2");
  const std::string locked = shell.Execute("lock /data/t.txt");
  EXPECT_NE(locked.find("locked 512 resident pages"), std::string::npos);
  EXPECT_NE(shell.Execute("lock /data/t.txt").find("already locked"), std::string::npos);
  EXPECT_NE(shell.Execute("stats").find("512 pinned"), std::string::npos);
  EXPECT_NE(shell.Execute("unlock /data/t.txt").find("unlocked"), std::string::npos);
  EXPECT_NE(shell.Execute("unlock /data/t.txt").find("not locked"), std::string::npos);
  EXPECT_NE(shell.Execute("stats").find("0 pinned"), std::string::npos);
}

TEST(ShellTest, HsmCommands) {
  SledShell shell;
  (void)shell.Execute("mount hsm /archive");
  (void)shell.Execute("genfile /archive/old.txt 2");
  EXPECT_NE(shell.Execute("migrate /archive/old.txt").find("migrated"), std::string::npos);
  // The page cache still holds the generation writes; drop it so the panel
  // shows where the data now *lives*.
  (void)shell.Execute("dropcaches");
  const std::string panel = shell.Execute("sleds /archive/old.txt");
  EXPECT_NE(panel.find("tape"), std::string::npos);
  EXPECT_NE(shell.Execute("recall /archive/old.txt").find("recalled"), std::string::npos);
  // migrate on a non-HSM mount fails cleanly.
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 1");
  EXPECT_NE(shell.Execute("migrate /data/t.txt").find("not an HSM mount"), std::string::npos);
}

TEST(ShellTest, CdromMasteringWorkflow) {
  SledShell shell;
  (void)shell.Execute("mount cdrom /cd");
  (void)shell.Execute("genfile /cd/disc.txt 1");
  EXPECT_NE(shell.Execute("seal /cd").find("sealed"), std::string::npos);
  EXPECT_NE(shell.Execute("genfile /cd/more.txt 1").find("error: EROFS"), std::string::npos);
  EXPECT_NE(shell.Execute("seal /data").find("error"), std::string::npos);
}

TEST(ShellTest, RemoteMountWorks) {
  SledShell shell;
  (void)shell.Execute("mount remote /nfs");
  (void)shell.Execute("genfile /nfs/t.txt 2");
  (void)shell.Execute("flush");
  (void)shell.Execute("dropcaches");
  const std::string panel = shell.Execute("sleds /nfs/t.txt");
  EXPECT_NE(panel.find("nfs-"), std::string::npos);
}

TEST(ShellTest, ScriptRunnerEchoesAndSkipsComments) {
  SledShell shell;
  const std::string out = shell.RunScript(
      "# a comment\n"
      "mount ext2 /data\n"
      "\n"
      "genfile /data/t.txt 1\n"
      "clock\n");
  EXPECT_EQ(out.find("# a comment"), std::string::npos);
  EXPECT_NE(out.find("> mount ext2 /data"), std::string::npos);
  EXPECT_NE(out.find("t = "), std::string::npos);
}

TEST(ShellTest, FitsGeneration) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  EXPECT_NE(shell.Execute("genfits /data/img.fits 4").find("float image"), std::string::npos);
  EXPECT_NE(shell.Execute("stat /data/img.fits").find("file"), std::string::npos);
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(ShellTest, ZonedMountShowsPerZoneRows) {
  SledShell shell;
  (void)shell.Execute("mount zoned /data");
  const std::string stats = shell.Execute("stats");
  EXPECT_NE(stats.find("disk-z0"), std::string::npos);
  EXPECT_NE(stats.find("disk-z7"), std::string::npos);
}

TEST(ShellTest, TieredMountStripesFileAcrossTwoLevels) {
  SledShell shell;
  EXPECT_NE(shell.Execute("mount tiered /t").find("mounted tiered"), std::string::npos);
  EXPECT_NE(shell.Execute("genfile /t/x.txt 2").find("wrote"), std::string::npos);
  (void)shell.Execute("dropcaches");
  // Cold file: every panel row names the device its stripe lives on, and
  // both devices hold some of them.
  const std::string panel = shell.Execute("sleds /t/x.txt");
  std::istringstream rows(panel.substr(panel.find("level\n") + 6));
  std::set<std::string> levels;
  for (std::string row; std::getline(rows, row) && row.find("estimated") != 0;) {
    levels.insert(row.substr(row.rfind(' ') + 1));
  }
  EXPECT_EQ(levels, (std::set<std::string>{"ssd", "disk"}));
  EXPECT_NE(shell.Execute("cat /t/x.txt").find("read 2097152 bytes"), std::string::npos);
}

TEST(ShellTest, TraceDumpsRecentEvents) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 1");
  (void)shell.Execute("dropcaches");
  (void)shell.Execute("cat /data/t.txt");
  const std::string out = shell.Execute("trace 10");
  EXPECT_NE(out.find("events recorded"), std::string::npos);
  EXPECT_NE(out.find("seq,t_ns,kind,pid,level,file,a,b,dur_ns,tag"), std::string::npos);
  // cat ends with a close: its exit event is in the last 10.
  EXPECT_NE(out.find("syscall_exit"), std::string::npos);
  // At most header + preamble + 10 rows.
  EXPECT_LE(std::count(out.begin(), out.end(), '\n'), 12);
  EXPECT_NE(shell.Execute("trace bogus").find("usage"), std::string::npos);
}

TEST(ShellTest, IostatShowsPerLevelActivity) {
  SledShell shell;
  (void)shell.Execute("mount ext2 /data");
  (void)shell.Execute("genfile /data/t.txt 1");
  (void)shell.Execute("dropcaches");
  (void)shell.Execute("cat /data/t.txt");
  const std::string out = shell.Execute("iostat");
  EXPECT_NE(out.find("pageins"), std::string::npos);
  EXPECT_NE(out.find("memory"), std::string::npos);  // level 0
  EXPECT_NE(out.find("disk"), std::string::npos);    // the data fs level
  EXPECT_NE(out.find("readahead:"), std::string::npos);
  EXPECT_NE(out.find("writeback:"), std::string::npos);
  // The cold cat paged everything in from the data disk: some level line has
  // a non-zero pagein count and quantiles.
  EXPECT_NE(out.find("p95"), std::string::npos);
  // Per-device transfer counters with busy-time utilization.
  EXPECT_NE(out.find("device disk"), std::string::npos);
  EXPECT_NE(out.find("busy"), std::string::npos);
  // The I/O queue section appears exactly when an engine mode is selected
  // (the shell kernel resolves $SLEDS_IO_MODE).
  if (shell.kernel().io_mode() != IoMode::kFifoSync) {
    EXPECT_NE(out.find("\nqueue "), std::string::npos);
    EXPECT_NE(out.find("dispatched"), std::string::npos);
  } else {
    EXPECT_EQ(out.find("\nqueue "), std::string::npos);
  }
}

}  // namespace
}  // namespace sled
