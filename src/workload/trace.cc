#include "src/workload/trace.h"

#include <map>
#include <sstream>

#include "src/sleds/picker.h"

namespace sled {
namespace {

const char* OpName(TraceOp op) {
  switch (op) {
    case TraceOp::kOpen:
      return "open";
    case TraceOp::kClose:
      return "close";
    case TraceOp::kRead:
      return "read";
    case TraceOp::kWrite:
      return "write";
    case TraceOp::kLseek:
      return "lseek";
    case TraceOp::kMmapRead:
      return "mmap_read";
  }
  return "?";
}

}  // namespace

std::string FormatTrace(const Trace& trace) {
  std::string out;
  for (const TraceEvent& e : trace) {
    out += OpName(e.op);
    out += ' ' + std::to_string(e.fd);
    switch (e.op) {
      case TraceOp::kOpen:
        out += ' ' + e.path;
        break;
      case TraceOp::kClose:
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
        out += ' ' + std::to_string(e.length);
        break;
      case TraceOp::kLseek:
        out += ' ' + std::to_string(e.offset);
        break;
      case TraceOp::kMmapRead:
        out += ' ' + std::to_string(e.offset) + ' ' + std::to_string(e.length);
        break;
    }
    out += '\n';
  }
  return out;
}

Result<Trace> ParseTrace(const std::string& text) {
  Trace trace;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string op;
    TraceEvent e;
    if (!(ls >> op >> e.fd)) {
      return Err::kInval;
    }
    if (op == "open") {
      e.op = TraceOp::kOpen;
      if (!(ls >> e.path)) {
        return Err::kInval;
      }
    } else if (op == "close") {
      e.op = TraceOp::kClose;
    } else if (op == "read" || op == "write") {
      e.op = op == "read" ? TraceOp::kRead : TraceOp::kWrite;
      if (!(ls >> e.length)) {
        return Err::kInval;
      }
    } else if (op == "lseek") {
      e.op = TraceOp::kLseek;
      if (!(ls >> e.offset)) {
        return Err::kInval;
      }
    } else if (op == "mmap_read") {
      e.op = TraceOp::kMmapRead;
      if (!(ls >> e.offset >> e.length)) {
        return Err::kInval;
      }
    } else {
      return Err::kInval;
    }
    if (e.offset < 0 || e.length < 0) {
      return Err::kInval;  // lseek replays as an absolute seek; lengths size buffers
    }
    trace.push_back(std::move(e));
  }
  return trace;
}

TraceStats SummarizeTrace(const Trace& trace) {
  TraceStats stats;
  stats.events = static_cast<int64_t>(trace.size());
  for (const TraceEvent& e : trace) {
    switch (e.op) {
      case TraceOp::kOpen:
        ++stats.opens;
        break;
      case TraceOp::kRead:
      case TraceOp::kMmapRead:
        stats.bytes_read += e.length;
        break;
      case TraceOp::kWrite:
        stats.bytes_written += e.length;
        break;
      case TraceOp::kLseek:
        ++stats.seeks;
        break;
      case TraceOp::kClose:
        break;
    }
  }
  return stats;
}

// ---- recording ----

Result<int> TraceRecorder::Open(std::string_view path) {
  SLED_ASSIGN_OR_RETURN(int fd, kernel_.Open(process_, path));
  trace_.push_back({TraceOp::kOpen, fd, std::string(path), 0, 0});
  return fd;
}

Result<void> TraceRecorder::Close(int fd) {
  SLED_RETURN_IF_ERROR(kernel_.Close(process_, fd));
  trace_.push_back({TraceOp::kClose, fd, "", 0, 0});
  return Result<void>::Ok();
}

Result<int64_t> TraceRecorder::Read(int fd, std::span<char> dst) {
  SLED_ASSIGN_OR_RETURN(int64_t n, kernel_.Read(process_, fd, dst));
  if (n > 0) {
    trace_.push_back({TraceOp::kRead, fd, "", 0, n});
  }
  return n;
}

Result<int64_t> TraceRecorder::Write(int fd, std::span<const char> src) {
  SLED_ASSIGN_OR_RETURN(int64_t n, kernel_.Write(process_, fd, src));
  if (n > 0) {
    trace_.push_back({TraceOp::kWrite, fd, "", 0, n});
  }
  return n;
}

Result<int64_t> TraceRecorder::Lseek(int fd, int64_t offset, Whence whence) {
  SLED_ASSIGN_OR_RETURN(int64_t absolute, kernel_.Lseek(process_, fd, offset, whence));
  trace_.push_back({TraceOp::kLseek, fd, "", absolute, 0});
  return absolute;
}

Result<std::string_view> TraceRecorder::MmapRead(int fd, int64_t offset, int64_t length) {
  SLED_ASSIGN_OR_RETURN(std::string_view view, kernel_.MmapRead(process_, fd, offset, length));
  trace_.push_back({TraceOp::kMmapRead, fd, "", offset, static_cast<int64_t>(view.size())});
  return view;
}

// ---- replay ----

namespace {

// A per-descriptor session: either replayed verbatim, or (read-only sessions
// under reorder mode) re-planned with the picker.
struct Session {
  int real_fd = -1;
  bool wrote = false;
};

Result<void> ReplayPickerSession(SimKernel& kernel, Process& p, int fd,
                                 const ReplayOptions& options) {
  PickerOptions picker_options;
  picker_options.preferred_chunk_bytes = options.picker_chunk_bytes;
  SLED_ASSIGN_OR_RETURN(std::unique_ptr<SledsPicker> picker,
                        SledsPicker::Create(kernel, p, fd, picker_options));
  std::vector<char> buf(static_cast<size_t>(options.picker_chunk_bytes));
  while (true) {
    SLED_ASSIGN_OR_RETURN(SledsPicker::Pick pick, picker->NextRead());
    if (pick.length == 0) {
      return Result<void>::Ok();
    }
    SLED_RETURN_IF_ERROR(kernel.Lseek(p, fd, pick.offset, Whence::kSet));
    SLED_ASSIGN_OR_RETURN(
        int64_t n,
        kernel.Read(p, fd, std::span<char>(buf.data(), static_cast<size_t>(pick.length))));
    if (n != pick.length) {
      return Err::kIo;
    }
  }
}

// Does this fd's session (starting at `start`) perform any writes?
bool SessionWrites(const Trace& trace, size_t start, int fd) {
  for (size_t i = start; i < trace.size(); ++i) {
    if (trace[i].fd != fd) {
      continue;
    }
    if (trace[i].op == TraceOp::kWrite) {
      return true;
    }
    if (trace[i].op == TraceOp::kClose) {
      return false;
    }
  }
  return false;
}

}  // namespace

Result<ReplayResult> ReplayTrace(SimKernel& kernel, const Trace& trace,
                                 const ReplayOptions& options) {
  Process& p = kernel.CreateProcess("replay");
  std::map<int, Session> sessions;  // trace fd -> live session
  std::vector<char> buf;

  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    switch (e.op) {
      case TraceOp::kOpen: {
        Session session;
        SLED_ASSIGN_OR_RETURN(session.real_fd, kernel.Open(p, e.path));
        if (options.reorder_reads_with_sleds && !SessionWrites(trace, i + 1, e.fd)) {
          // Re-plan the whole read-only session now, then skip its recorded
          // reads/seeks as they come by.
          SLED_RETURN_IF_ERROR(ReplayPickerSession(kernel, p, session.real_fd, options));
          session.wrote = false;
          sessions[e.fd] = session;
          // Mark the session as pre-served by recording a negative fd.
          sessions[e.fd].real_fd = ~session.real_fd;
          break;
        }
        sessions[e.fd] = session;
        break;
      }
      case TraceOp::kClose: {
        auto it = sessions.find(e.fd);
        if (it == sessions.end()) {
          return Err::kBadF;
        }
        const int real = it->second.real_fd < 0 ? ~it->second.real_fd : it->second.real_fd;
        SLED_RETURN_IF_ERROR(kernel.Close(p, real));
        sessions.erase(it);
        break;
      }
      case TraceOp::kRead:
      case TraceOp::kLseek:
      case TraceOp::kMmapRead: {
        auto it = sessions.find(e.fd);
        if (it == sessions.end()) {
          return Err::kBadF;
        }
        if (it->second.real_fd < 0) {
          break;  // session was re-planned wholesale; skip recorded reads
        }
        if (e.op == TraceOp::kLseek) {
          SLED_RETURN_IF_ERROR(kernel.Lseek(p, it->second.real_fd, e.offset, Whence::kSet));
        } else if (e.op == TraceOp::kRead) {
          buf.resize(static_cast<size_t>(e.length));
          SLED_RETURN_IF_ERROR(
              kernel.Read(p, it->second.real_fd, std::span<char>(buf.data(), buf.size())));
        } else {
          SLED_RETURN_IF_ERROR(kernel.MmapRead(p, it->second.real_fd, e.offset, e.length));
        }
        break;
      }
      case TraceOp::kWrite: {
        auto it = sessions.find(e.fd);
        if (it == sessions.end() || it->second.real_fd < 0) {
          return Err::kBadF;
        }
        buf.assign(static_cast<size_t>(e.length), 'w');
        SLED_RETURN_IF_ERROR(
            kernel.Write(p, it->second.real_fd, std::span<const char>(buf.data(), buf.size())));
        break;
      }
    }
  }
  // Close anything the trace left open (truncated captures).
  for (auto& [fd, session] : sessions) {
    const int real = session.real_fd < 0 ? ~session.real_fd : session.real_fd;
    // Not an error swallow: best-effort cleanup; kBadF just means the trace
    // already closed it.
    (void)kernel.Close(p, real);
  }
  return ReplayResult{p.stats().elapsed(), p.stats().major_faults};
}

}  // namespace sled
