// hsm_explorer: the interactive-latency story from the paper's introduction,
// on a hierarchical storage manager. A user browsing an archive wants to know
// *before opening a file* whether it will take microseconds (cache), tens of
// milliseconds (staging disk), tens of seconds (mounted tape), or minutes
// (offline tape) — the gmc properties panel (Figure 6) plus find -latency.
//
// Run: ./build/examples/hsm_explorer
#include <cstdio>
#include <string>

#include "src/apps/file_info.h"
#include "src/apps/find.h"
#include "src/common/units.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

int main() {
  using namespace sled;

  Testbed tb = MakeHsmTestbed(/*seed=*/7);
  auto* hsm = dynamic_cast<HsmFs*>(tb.kernel->vfs().FsById(tb.data_fs_id));
  Process& user = tb.kernel->CreateProcess("user");
  Rng rng(7);

  // An archive: survey images from several nights; older nights migrated.
  std::printf("building archive: 6 observation files, 4 migrated to tape...\n");
  for (int night = 0; night < 6; ++night) {
    const std::string path = "/data/night" + std::to_string(night) + ".dat";
    if (!GenerateTextFile(*tb.kernel, user, path, MiB(8), rng).ok()) {
      std::fprintf(stderr, "generation failed\n");
      return 1;
    }
  }
  for (int night = 0; night < 4; ++night) {
    const std::string path = "/data/night" + std::to_string(night) + ".dat";
    const InodeNum ino = tb.kernel->vfs().Resolve(path).value().ino;
    (void)hsm->Migrate(ino).value();
  }
  tb.kernel->DropCaches();
  // Re-read night5 so part of it is cached.
  {
    const int fd = tb.kernel->Open(user, "/data/night5.dat").value();
    std::vector<char> buf(static_cast<size_t>(MiB(1)));
    while (tb.kernel->Read(user, fd, std::span<char>(buf.data(), buf.size())).value() > 0) {
    }
    (void)tb.kernel->Close(user, fd);
  }

  // The gmc-style properties panel for each file.
  for (int night = 0; night < 6; ++night) {
    const std::string path = "/data/night" + std::to_string(night) + ".dat";
    const FileInfoReport report = FileInfoApp::Run(*tb.kernel, user, path).value();
    std::printf("\n%s\n", report.panel_text.c_str());
  }

  // find -latency: which data can I browse without waking the robot?
  std::printf("\n--- find /data -latency -m100   (instantly browsable) ---\n");
  FindOptions instant;
  instant.latency = ParseLatencyPredicate("-m100").value();
  const FindResult browsable = FindApp::Run(*tb.kernel, user, "/data", instant).value();
  for (const std::string& path : browsable.paths) {
    std::printf("  %s\n", path.c_str());
  }
  std::printf("\n--- find /data -latency +60     (needs a tape mount) ---\n");
  FindOptions offline;
  offline.latency = ParseLatencyPredicate("+60").value();
  const FindResult on_tape = FindApp::Run(*tb.kernel, user, "/data", offline).value();
  for (const std::string& path : on_tape.paths) {
    std::printf("  %s\n", path.c_str());
  }

  // Now actually open an offline file and watch the clock.
  std::printf("\nrecalling /data/night0.dat from tape...\n");
  const InodeNum ino = tb.kernel->vfs().Resolve("/data/night0.dat").value().ino;
  const Duration recall = hsm->Recall(ino).value();
  std::printf("recall took %s (exchange + load + locate + copy to staging)\n",
              recall.ToString().c_str());
  const FileInfoReport after = FileInfoApp::Run(*tb.kernel, user, "/data/night0.dat").value();
  std::printf("\nafter recall:\n%s\n", after.panel_text.c_str());
  return 0;
}
