#include "src/apps/grep.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/sleds/picker.h"

namespace sled {

HorspoolSearcher::HorspoolSearcher(std::string_view needle) : needle_(needle) {
  shift_.fill(needle.size());
  for (size_t i = 0; i + 1 < needle.size(); ++i) {
    shift_[static_cast<uint8_t>(needle[i])] = needle.size() - 1 - i;
  }
}

size_t HorspoolSearcher::Find(std::string_view haystack, size_t from) const {
  const size_t n = needle_.size();
  if (n == 0) {
    return std::string_view::npos;
  }
  for (size_t pos = from; pos + n <= haystack.size();
       pos += shift_[static_cast<uint8_t>(haystack[pos + n - 1])]) {
    if (haystack.compare(pos, n, needle_) == 0) {
      return pos;
    }
  }
  return std::string_view::npos;
}

std::vector<size_t> HorspoolSearchAll(std::string_view haystack, std::string_view needle) {
  std::vector<size_t> hits;
  const HorspoolSearcher searcher(needle);
  for (size_t pos = searcher.Find(haystack); pos != std::string_view::npos;
       pos = searcher.Find(haystack, pos + 1)) {
    hits.push_back(pos);
  }
  return hits;
}

namespace {

// Per contiguous-run line scanner: assembles complete lines from chunks that
// arrive in order, searches them, and records matches with enough local
// context to reconstruct global line numbers later.
class RunScanner {
 public:
  RunScanner(std::string_view pattern, const GrepOptions& options,
             std::vector<GrepMatch>* matches)
      : searcher_(pattern), options_(options), matches_(matches) {}

  // Begin a new contiguous run at `offset`. Flushes nothing: callers must
  // FinishRun() first.
  void StartRun(int64_t offset) {
    run_start_ = offset;
    next_offset_ = offset;
    pending_.clear();
    pending_start_ = offset;
    local_newlines_ = 0;
    run_newlines_ = 0;
    before_buf_.clear();
    after_pending_.clear();
  }

  int64_t next_offset() const { return next_offset_; }

  // Feed the next chunk of the run; returns true if -q satisfied.
  bool Feed(std::string_view data) {
    pending_ += data;
    next_offset_ += static_cast<int64_t>(data.size());
    // Process complete lines (up to the last newline).
    const size_t last_nl = pending_.rfind('\n');
    if (last_nl == std::string::npos) {
      return false;
    }
    const bool done = ScanLines(std::string_view(pending_).substr(0, last_nl + 1));
    pending_.erase(0, last_nl + 1);
    pending_start_ += static_cast<int64_t>(last_nl + 1);
    return done;
  }

  // End of run: the remainder (no trailing newline) is still a line.
  bool FinishRun() {
    if (pending_.empty()) {
      return false;
    }
    const bool done = ScanLines(pending_);
    pending_start_ += static_cast<int64_t>(pending_.size());
    pending_.clear();
    return done;
  }

  // (newline count, run info) bookkeeping for -n reconstruction.
  struct RunInfo {
    int64_t start = 0;
    int64_t length = 0;
    int64_t newlines = 0;
  };
  RunInfo TakeRunInfo() const { return {run_start_, next_offset_ - run_start_, run_newlines_}; }
  void ResetRunNewlines() { run_newlines_ = 0; }

 private:
  // Scan whole lines in `text` (which starts at pending_start_).
  bool ScanLines(std::string_view text) {
    size_t line_start = 0;
    while (line_start < text.size()) {
      size_t line_end = text.find('\n', line_start);
      size_t next = 0;
      if (line_end == std::string_view::npos) {
        line_end = text.size();
        next = line_end;
      } else {
        next = line_end + 1;
      }
      const std::string_view line = text.substr(line_start, line_end - line_start);
      // Feed -A context of earlier matches in this run.
      if (!after_pending_.empty()) {
        for (auto it = after_pending_.begin(); it != after_pending_.end();) {
          (*matches_)[it->first].after.emplace_back(line);
          if (--it->second == 0) {
            it = after_pending_.erase(it);
          } else {
            ++it;
          }
        }
      }
      if (searcher_.Find(line) != std::string_view::npos) {
        GrepMatch m;
        m.line_offset = pending_start_ + static_cast<int64_t>(line_start);
        // Local line index within this run; converted to a global number
        // after all runs are merged.
        m.line_number = local_newlines_;
        m.line = std::string(line);
        m.before.assign(before_buf_.begin(), before_buf_.end());
        matches_->push_back(std::move(m));
        if (options_.quiet_first_match) {
          return true;
        }
        if (options_.after_context > 0) {
          after_pending_.emplace_back(matches_->size() - 1, options_.after_context);
        }
      }
      if (options_.before_context > 0) {
        before_buf_.emplace_back(line);
        while (static_cast<int>(before_buf_.size()) > options_.before_context) {
          before_buf_.pop_front();
        }
      }
      if (line_end < text.size()) {
        ++local_newlines_;
        ++run_newlines_;
      }
      line_start = next;
    }
    return false;
  }

  HorspoolSearcher searcher_;
  const GrepOptions& options_;
  std::vector<GrepMatch>* matches_;
  int64_t run_start_ = 0;
  int64_t next_offset_ = 0;
  std::string pending_;
  int64_t pending_start_ = 0;
  int64_t local_newlines_ = 0;  // newlines seen before the current line
  int64_t run_newlines_ = 0;
  std::deque<std::string> before_buf_;                    // last -B lines
  std::vector<std::pair<size_t, int>> after_pending_;     // match idx, lines left
};

}  // namespace

Result<GrepResult> GrepApp::Run(SimKernel& kernel, Process& process, std::string_view path,
                                std::string_view pattern, const GrepOptions& options) {
  if (pattern.empty()) {
    return Err::kInval;
  }
  if (options.kernel_program) {
    // Completion-program variant: -q only (the program returns found/offset,
    // not assembled lines). One install + one run replaces the whole
    // read-a-buffer / scan / repeat loop.
    if (!options.quiet_first_match) {
      return Err::kInval;
    }
    SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
    ProgSpec spec;
    spec.kind = ProgKind::kFindFirst;
    spec.pattern = std::string(pattern);
    spec.chunk_bytes = options.buffer_bytes;
    spec.order_by_sleds = options.use_sleds;
    // Same per-byte compute the userspace scan declares, so the two paths
    // differ only in crossings and copies.
    spec.step_cost_ns_per_byte = static_cast<double>(options.costs.grep_per_byte.nanos());
    auto run = [&]() -> Result<ProgResult> {
      SLED_RETURN_IF_ERROR(kernel.InstallProgram(process, fd, spec));
      return kernel.RunProgram(process, fd);
    }();
    if (!run.ok()) {
      // Error path: fd cleanup is best-effort; the original error is the story.
      (void)kernel.Close(process, fd);
      return run.error();
    }
    SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
    if (run->status != ProgStatus::kOk) {
      return Err::kInval;  // program exceeded its sandbox budget
    }
    GrepResult result;
    result.found = run->found;
    kernel.ChargeAppCpu(process, options.costs.grep_per_match * (run->found ? 1 : 0));
    return result;
  }
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  std::vector<char> buf(static_cast<size_t>(options.buffer_bytes));
  std::vector<GrepMatch> matches;
  std::vector<RunScanner::RunInfo> runs;
  RunScanner scanner(pattern, options, &matches);
  bool done = false;

  auto charge = [&](int64_t n) {
    Duration per_byte = options.costs.grep_per_byte;
    if (options.use_sleds) {
      per_byte += options.costs.sleds_record_per_byte;
    }
    kernel.ChargeAppCpu(process, per_byte * n);
  };

  if (!options.use_sleds) {
    scanner.StartRun(0);
    while (!done) {
      SLED_ASSIGN_OR_RETURN(int64_t n,
                            kernel.Read(process, fd, std::span<char>(buf.data(), buf.size())));
      if (n == 0) {
        done = scanner.FinishRun();
        break;
      }
      charge(n);
      done = scanner.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
    }
    runs.push_back(scanner.TakeRunInfo());
  } else {
    PickerOptions picker_options;
    picker_options.preferred_chunk_bytes = options.buffer_bytes;
    picker_options.record_oriented = true;
    picker_options.record_separator = '\n';
    SLED_ASSIGN_OR_RETURN(std::unique_ptr<SledsPicker> picker,
                          SledsPicker::Create(kernel, process, fd, picker_options));
    bool in_run = false;
    while (!done) {
      SLED_ASSIGN_OR_RETURN(SledsPicker::Pick pick, picker->NextRead());
      if (pick.length == 0) {
        if (in_run) {
          done = scanner.FinishRun();
          runs.push_back(scanner.TakeRunInfo());
        }
        break;
      }
      if (!in_run || pick.offset != scanner.next_offset()) {
        if (in_run) {
          done = scanner.FinishRun();
          runs.push_back(scanner.TakeRunInfo());
          if (done) {
            break;
          }
        }
        scanner.StartRun(pick.offset);
        in_run = true;
      }
      SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, pick.offset, Whence::kSet));
      SLED_ASSIGN_OR_RETURN(
          int64_t n, kernel.Read(process, fd,
                                 std::span<char>(buf.data(), static_cast<size_t>(pick.length))));
      if (n != pick.length) {
        // Error path: fd cleanup is best-effort; the original error is the story.
        (void)kernel.Close(process, fd);
        return Err::kIo;
      }
      charge(n);
      done = scanner.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
      if (done) {
        runs.push_back(scanner.TakeRunInfo());
      }
    }
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));

  GrepResult result;
  result.found = !matches.empty();
  if (options.quiet_first_match) {
    // -q reports status only.
    kernel.ChargeAppCpu(process, options.costs.grep_per_match *
                                     static_cast<int64_t>(matches.size()));
    return result;
  }

  // Sort matches into file order (the linked-list sort of §5.2) and resolve
  // line numbers from per-run newline counts.
  kernel.ChargeAppCpu(process,
                      options.costs.grep_per_match * static_cast<int64_t>(matches.size()));
  std::sort(matches.begin(), matches.end(),
            [](const GrepMatch& a, const GrepMatch& b) { return a.line_offset < b.line_offset; });
  if (options.line_numbers) {
    std::sort(runs.begin(), runs.end(),
              [](const RunScanner::RunInfo& a, const RunScanner::RunInfo& b) {
                return a.start < b.start;
              });
    for (GrepMatch& m : matches) {
      int64_t newlines_before = 0;
      for (const RunScanner::RunInfo& run : runs) {
        if (run.start + run.length <= m.line_offset) {
          newlines_before += run.newlines;
        } else if (run.start <= m.line_offset) {
          newlines_before += m.line_number;  // local index within this run
          break;
        }
      }
      m.line_number = newlines_before + 1;
    }
  } else {
    for (GrepMatch& m : matches) {
      m.line_number = 0;
    }
  }
  result.matches = std::move(matches);
  return result;
}

}  // namespace sled
