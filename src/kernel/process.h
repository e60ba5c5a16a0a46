// Per-process accounting: the simulated equivalent of what the paper read
// from time(1) — elapsed time and page faults — plus the file-descriptor
// table and per-descriptor readahead state.
#ifndef SLEDS_SRC_KERNEL_PROCESS_H_
#define SLEDS_SRC_KERNEL_PROCESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/common/sim_time.h"
#include "src/fs/filesystem.h"

namespace sled {

struct ProcessStats {
  int64_t syscalls = 0;
  // Pages copied out of the resident cache (soft work, no device I/O).
  int64_t minor_faults = 0;
  // Pages brought in from a backing device on this process's behalf,
  // including its readahead. This matches the magnitude the paper plots
  // (e.g. Fig 9: ~24.5k faults for a 96 MB file = every 4 KiB page).
  int64_t major_faults = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  // Times the process blocked on an in-flight asynchronous I/O completion
  // (event-driven engine only; the synchronous path never blocks-and-waits).
  int64_t io_waits = 0;
  Duration cpu_time;
  Duration io_time;

  // Processes run alone in these experiments (paper §5.1: "no other user
  // activity"), so elapsed time is CPU plus I/O wait.
  Duration elapsed() const { return cpu_time + io_time; }
};

// An open file description (the kernel side of a file descriptor).
struct OpenFile {
  uint32_t fs_id = 0;
  InodeNum ino = 0;
  FileId fid = 0;
  int64_t offset = 0;

  // Sequential-readahead state (Linux 2.2-style window doubling): the page
  // where the next demand miss would count as sequential, and the current
  // window size in pages (0 = kernel minimum).
  int64_t last_demand_page = -2;
  int readahead_window = 0;

  // Pages this descriptor has pinned via FSLEDS_LOCK; auto-unpinned on
  // close (paper §3.4's lock/reservation mechanism).
  std::vector<int64_t> locked_pages;

  // Completion-program handle installed via SimKernel::InstallProgram
  // (-1 = none); auto-uninstalled on close.
  int64_t prog = -1;
};

class Process {
 public:
  Process(int pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  int pid() const { return pid_; }
  const std::string& name() const { return name_; }

  ProcessStats& stats() { return stats_; }
  const ProcessStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ProcessStats{}; }

  // ---- fd table (used by the kernel) ----
  int InstallFd(OpenFile of) {
    const int fd = next_fd_++;
    fds_.emplace(fd, of);
    return fd;
  }
  OpenFile* FindFd(int fd) {
    auto it = fds_.find(fd);
    return it == fds_.end() ? nullptr : &it->second;
  }
  bool RemoveFd(int fd) { return fds_.erase(fd) > 0; }

 private:
  int pid_;
  std::string name_;
  ProcessStats stats_;
  std::unordered_map<int, OpenFile> fds_;
  int next_fd_ = 3;  // 0-2 notionally reserved for std streams
};

}  // namespace sled

#endif  // SLEDS_SRC_KERNEL_PROCESS_H_
