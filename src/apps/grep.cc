#include "src/apps/grep.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/sleds/picker.h"

namespace sled {

std::vector<size_t> HorspoolSearchAll(std::string_view haystack, std::string_view needle) {
  std::vector<size_t> hits;
  if (needle.empty()) {
    return hits;
  }
  for (size_t pos = haystack.find(needle); pos != std::string_view::npos;
       pos = haystack.find(needle, pos + 1)) {
    hits.push_back(pos);
  }
  return hits;
}

namespace {

constexpr size_t kNewlineBlock = 64;

// '\n' bytes in `text`. As in wc's CountWcBlock, the inner loop has a fixed
// trip count and a uint8_t sum one block cannot overflow, so the compiler
// vectorizes it at the baseline ISA; std::count stays scalar.
int64_t CountNewlines(std::string_view text) {
  int64_t total = 0;
  size_t at = 0;
  for (; at + kNewlineBlock <= text.size(); at += kNewlineBlock) {
    uint8_t block = 0;
    for (size_t i = 0; i < kNewlineBlock; ++i) {
      block += text[at + i] == '\n';
    }
    total += block;
  }
  for (; at < text.size(); ++at) {
    total += text[at] == '\n';
  }
  return total;
}

// Per contiguous-run line scanner: takes the run's chunks in order, searches
// each once, and records matches with enough local context to reconstruct
// global line numbers later. Lines between hits are skipped in bulk; only a
// hit line and a line owed -A context go through the per-line body.
class RunScanner {
 public:
  RunScanner(std::string_view pattern, const GrepOptions& options,
             std::vector<GrepMatch>* matches)
      : pattern_(pattern), options_(options), matches_(matches) {}

  // Begin a new contiguous run at `offset`. Flushes nothing: callers must
  // FinishRun() first.
  void StartRun(int64_t offset) {
    run_start_ = offset;
    next_offset_ = offset;
    pending_.clear();
    newlines_ = 0;
    before_buf_.clear();
    after_pending_.clear();
  }

  int64_t next_offset() const { return next_offset_; }

  // Feed the next chunk of the run; returns true if -q satisfied. The chunk is
  // scanned in place; only its trailing partial line is carried.
  bool Feed(std::string_view data) {
    const int64_t offset = next_offset_;
    next_offset_ += static_cast<int64_t>(data.size());
    const size_t last_nl = data.rfind('\n');
    if (last_nl == std::string_view::npos) {
      pending_ += data;
      return false;
    }
    size_t from = 0;
    if (!pending_.empty()) {
      // The carried line ends in this chunk: complete it and scan it alone.
      const int64_t start = offset - static_cast<int64_t>(pending_.size());
      from = data.find('\n') + 1;
      pending_ += data.substr(0, from);
      if (ScanLines(pending_, start)) {
        return true;
      }
    }
    const bool done = ScanLines(data.substr(from, last_nl + 1 - from),
                                offset + static_cast<int64_t>(from));
    pending_.assign(data.substr(last_nl + 1));
    return done;
  }

  // End of run: the remainder (no trailing newline) is still a line.
  bool FinishRun() {
    const bool done =
        !pending_.empty() &&
        ScanLine(pending_, next_offset_ - static_cast<int64_t>(pending_.size()));
    pending_.clear();
    return done;
  }

  // (newline count, run info) bookkeeping for -n reconstruction.
  struct RunInfo {
    int64_t start = 0;
    int64_t length = 0;
    int64_t newlines = 0;
  };
  RunInfo TakeRunInfo() const { return {run_start_, next_offset_ - run_start_, newlines_}; }

 private:
  // Scan `text`, whole lines that each end in '\n', starting at file offset
  // `base`. The pattern holds no '\n', so every hit lies inside one line.
  bool ScanLines(std::string_view text, int64_t base) {
    size_t pos = 0;
    while (pos < text.size()) {
      size_t line_start = pos;
      if (after_pending_.empty()) {
        const size_t hit = text.find(pattern_, pos);
        if (hit == std::string_view::npos) {
          Skip(text.substr(pos));
          return false;
        }
        const size_t nl = text.rfind('\n', hit);
        line_start = nl == std::string_view::npos ? 0 : nl + 1;
        Skip(text.substr(pos, line_start - pos));
      }
      const size_t line_end = text.find('\n', line_start);
      if (ScanLine(text.substr(line_start, line_end - line_start),
                   base + static_cast<int64_t>(line_start))) {
        return true;
      }
      ++newlines_;
      pos = line_end + 1;
    }
    return false;
  }

  // Pass over `span`, whole lines with no hit that each end in '\n': count
  // them for -n, the only reader of the count, and keep the last -B of them.
  void Skip(std::string_view span) {
    if (options_.line_numbers) {
      newlines_ += CountNewlines(span);
    }
    size_t from = span.size();
    for (int i = 0; i < options_.before_context && from > 0; ++i) {
      const size_t nl = from >= 2 ? span.rfind('\n', from - 2) : std::string_view::npos;
      from = nl == std::string_view::npos ? 0 : nl + 1;
    }
    while (from < span.size()) {
      const size_t nl = span.find('\n', from);
      PushBefore(span.substr(from, nl - from));
      from = nl + 1;
    }
  }

  // The per-line body: -A context owed to earlier matches, the search, the
  // -B window. Callers count the line's newline.
  bool ScanLine(std::string_view line, int64_t offset) {
    for (auto it = after_pending_.begin(); it != after_pending_.end();) {
      (*matches_)[it->first].after.emplace_back(line);
      if (--it->second == 0) {
        it = after_pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (line.find(pattern_) != std::string_view::npos) {
      GrepMatch m;
      m.line_offset = offset;
      // Local line index within this run; converted to a global number
      // after all runs are merged.
      m.line_number = newlines_;
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
    PushBefore(line);
    return false;
  }

  void PushBefore(std::string_view line) {
    if (options_.before_context > 0) {
      before_buf_.emplace_back(line);
      while (static_cast<int>(before_buf_.size()) > options_.before_context) {
        before_buf_.pop_front();
      }
    }
  }

  std::string_view pattern_;
  const GrepOptions& options_;
  std::vector<GrepMatch>* matches_;
  int64_t run_start_ = 0;
  int64_t next_offset_ = 0;
  std::string pending_;  // the run's trailing partial line
  int64_t newlines_ = 0;  // newlines before the current line, exact under -n
  std::deque<std::string> before_buf_;                    // last -B lines
  std::vector<std::pair<size_t, int>> after_pending_;     // match idx, lines left
};

}  // namespace

Result<GrepResult> GrepApp::Run(SimKernel& kernel, Process& process, std::string_view path,
                                std::string_view pattern, const GrepOptions& options) {
  if (pattern.empty() || pattern.find('\n') != std::string_view::npos ||
      options.buffer_bytes <= 0) {
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
