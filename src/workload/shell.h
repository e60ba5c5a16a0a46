// sledsh — a scriptable shell over the simulated storage stack, the
// "scripts and other utilities built around this concept" the paper's
// conclusion envisions. One command per line; output is plain text. Used by
// examples/sledsh for interactive exploration and by tests as a high-level
// integration surface.
//
// Commands:
//   mount <ext2|cdrom|nfs|hsm|remote> <path>
//   genfile <path> <MB>            pseudo-random text
//   genfits <path> <MB>            FITS float image
//   genchain <path> <blocks> [every]  linked-block chain file
//   mkdir <path> | rm <path> | ls <path> | stat <path>
//   cat <path>                     read fully; report time and faults
//   wc [-s] [-m] [-p] <path>       -s: SLEDs order, -m: mmap, -p: in-kernel
//   grep [-s] [-q] [-n] [-p] <pattern> <path>
//   find <path> [-name <substr>] [-latency <pred>]
//   chain <path> [-name <substr>] [-p]  walk a chain file hop by hop
//
// -p runs the command as a kernel-resident completion program (grep needs
// -q with it).
//   sleds <path>                   the gmc properties panel
//   delivery <path>                estimated total delivery time
//   lock <path> | unlock <path>    FSLEDS_LOCK whole file / release
//   migrate <path> | recall <path> HSM control (hsm mounts only)
//   seal <path>                    finish mastering an ISO mount
//   dropcaches | flush | stats | clock
//   trace [n]                      last n kernel trace events as CSV (20)
//   iostat                         per-storage-level I/O metrics table
//   help
#ifndef SLEDS_SRC_WORKLOAD_SHELL_H_
#define SLEDS_SRC_WORKLOAD_SHELL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

class SledShell {
 public:
  SledShell();

  // Execute one command line; returns the textual output (never throws; all
  // errors are reported in the output, prefixed "error:").
  std::string Execute(const std::string& line);

  // Convenience: run a whole script, concatenating per-line outputs, each
  // prefixed by "> <line>" for readability.
  std::string RunScript(const std::string& script);

  SimKernel& kernel() { return *kernel_; }

 private:
  std::string CmdMount(const std::vector<std::string>& args);
  std::string CmdGenFile(const std::vector<std::string>& args);
  std::string CmdGenFits(const std::vector<std::string>& args);
  std::string CmdGenChain(const std::vector<std::string>& args);
  std::string CmdCat(const std::vector<std::string>& args);
  std::string CmdWc(const std::vector<std::string>& args);
  std::string CmdGrep(const std::vector<std::string>& args);
  std::string CmdFind(const std::vector<std::string>& args);
  std::string CmdChain(const std::vector<std::string>& args);
  std::string CmdSleds(const std::vector<std::string>& args);
  std::string CmdDelivery(const std::vector<std::string>& args);
  std::string CmdLock(const std::vector<std::string>& args, bool lock);
  std::string CmdHsm(const std::vector<std::string>& args, bool migrate);
  std::string CmdSeal(const std::vector<std::string>& args);
  std::string CmdLs(const std::vector<std::string>& args);
  std::string CmdStat(const std::vector<std::string>& args);
  std::string CmdStats();
  std::string CmdTrace(const std::vector<std::string>& args);
  std::string CmdIostat();

  // Fresh process per command, like a shell forking.
  Process& NewProcess(const std::string& name);

  std::unique_ptr<SimKernel> kernel_;
  Rng rng_;
  // fds held open by `lock` commands, per path (released by `unlock`).
  std::map<std::string, std::pair<int, Process*>> lock_fds_;
};

}  // namespace sled

#endif  // SLEDS_SRC_WORKLOAD_SHELL_H_
