#include "src/apps/find.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/sleds/delivery.h"

namespace sled {

Result<LatencyPredicate> ParseLatencyPredicate(std::string_view text) {
  if (text.empty()) {
    return Err::kInval;
  }
  LatencyPredicate pred;
  size_t i = 0;
  if (text[i] == '+') {
    pred.cmp = LatencyCmp::kGreater;
    ++i;
  } else if (text[i] == '-') {
    pred.cmp = LatencyCmp::kLess;
    ++i;
  } else {
    pred.cmp = LatencyCmp::kEqual;
  }
  double scale = 1.0;  // seconds
  if (i < text.size() && (text[i] == 'm' || text[i] == 'M')) {
    scale = 1e-3;
    ++i;
  } else if (i < text.size() && (text[i] == 'u' || text[i] == 'U')) {
    scale = 1e-6;
    ++i;
  }
  if (i >= text.size()) {
    return Err::kInval;
  }
  char* end = nullptr;
  const std::string digits(text.substr(i));
  const double value = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || value < 0) {
    return Err::kInval;
  }
  pred.threshold = SecondsF(value * scale);
  return pred;
}

namespace {

bool LatencyMatches(const LatencyPredicate& pred, Duration estimate) {
  switch (pred.cmp) {
    case LatencyCmp::kGreater:
      return estimate > pred.threshold;
    case LatencyCmp::kLess:
      return estimate < pred.threshold;
    case LatencyCmp::kEqual:
      // "Exactly n" compares at the predicate's own granularity (whole
      // seconds / milliseconds / microseconds would all be surprising to
      // match bit-exactly; find -atime rounds the same way).
      return std::llround(estimate.ToSeconds()) == std::llround(pred.threshold.ToSeconds());
  }
  return false;
}

Result<void> Walk(SimKernel& kernel, Process& process, const std::string& dir,
                  const FindOptions& options, uint32_t root_fs_id, FindResult* out) {
  SLED_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, kernel.ReadDir(process, dir));
  for (const DirEntry& e : entries) {
    const std::string path = dir == "/" ? "/" + e.name : dir + "/" + e.name;
    if (options.same_fs_only) {
      auto resolved = kernel.vfs().Resolve(path);
      if (resolved.ok() && resolved->fs_id != root_fs_id) {
        ++out->mounts_skipped;
        continue;  // -xdev: a different file system is mounted here
      }
    }
    if (e.is_dir) {
      if (options.include_dirs &&
          (options.name_contains.empty() ||
           e.name.find(options.name_contains) != std::string::npos)) {
        out->paths.push_back(path);
      }
      SLED_RETURN_IF_ERROR(Walk(kernel, process, path, options, root_fs_id, out));
      continue;
    }
    ++out->files_examined;
    if (!options.name_contains.empty() &&
        e.name.find(options.name_contains) == std::string::npos) {
      continue;
    }
    if (options.latency.has_value()) {
      // The -latency predicate costs one open + FSLEDS_GET + close per file;
      // it never reads file data. This is the pruning power of SLEDs: the
      // decision is made before any expensive I/O happens.
      SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
      auto estimate = TotalDeliveryTime(kernel, process, fd, AttackPlan::kBest);
      SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
      if (!estimate.ok()) {
        return estimate.error();
      }
      if (!LatencyMatches(*options.latency, estimate.value())) {
        ++out->files_pruned_by_latency;
        continue;
      }
    }
    out->paths.push_back(path);
  }
  return Result<void>::Ok();
}

}  // namespace

Result<FindResult> FindApp::Run(SimKernel& kernel, Process& process, std::string_view root,
                                const FindOptions& options) {
  FindResult result;
  SLED_ASSIGN_OR_RETURN(Vfs::Resolved r, kernel.vfs().Resolve(root));
  SLED_RETURN_IF_ERROR(Walk(kernel, process, std::string(root), options, r.fs_id, &result));
  return result;
}

namespace {

int64_t ChainReadI64Le(const char* data) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[i]);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Result<ChainResult> FindApp::RunChain(SimKernel& kernel, Process& process, std::string_view path,
                                      const ChainOptions& options) {
  if (options.block_bytes < 16 || options.start_offset < 0 || options.max_hops < 1) {
    return Err::kInval;
  }
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));

  if (options.kernel_program) {
    ProgSpec spec;
    spec.kind = ProgKind::kChainWalk;
    spec.pattern = options.name_contains;
    spec.start_offset = options.start_offset;
    spec.block_bytes = options.block_bytes;
    // The head read is the installed first fetch, not a resubmit, so a
    // budget of max_hops-1 chained reads visits exactly max_hops blocks —
    // the same cutoff as the oracle loop below.
    spec.limits.max_resubmits = static_cast<int32_t>(
        std::min<int64_t>(options.max_hops - 1, std::numeric_limits<int32_t>::max()));
    spec.step_cost_ns_per_byte = static_cast<double>(options.costs.chain_per_byte.nanos());
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
    // Hitting the hop budget is the expected way bounded walks end; data
    // faults (bad pointer, short block) are a malformed chain.
    if (run->status != ProgStatus::kOk && run->status != ProgStatus::kAbortedResubmits) {
      return Err::kInval;
    }
    ChainResult result;
    result.blocks_visited = run->blocks_visited;
    result.names_matched = run->names_matched;
    result.chain_hash = run->chain_hash;
    result.matched_offsets.assign(run->matched_offsets.begin(),
                                  run->matched_offsets.begin() + run->matched_count);
    return result;
  }

  // Userspace oracle: two syscalls (lseek + read) and one simulated user
  // copy per hop — exactly the per-hop cost the completion program
  // eliminates.
  ChainResult result;
  result.chain_hash = ProgResult().chain_hash;  // shared FNV-1a basis
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, kernel.Fstat(process, fd));
  int64_t offset = options.start_offset;
  for (int64_t hop = 0; offset >= 0; ++hop) {
    if (offset + options.block_bytes > attr.size) {
      (void)kernel.Close(process, fd);
      return Err::kInval;
    }
    SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, offset, Whence::kSet));
    SLED_ASSIGN_OR_RETURN(std::string_view block,
                          kernel.ReadView(process, fd, options.block_bytes));
    const int64_t n = static_cast<int64_t>(block.size());
    if (n != options.block_bytes) {
      (void)kernel.Close(process, fd);
      return Err::kIo;
    }
    kernel.ChargeAppCpu(process, options.costs.chain_per_byte * n);
    const int64_t next = ChainReadI64Le(block.data());
    const int64_t name_len = ChainReadI64Le(block.data() + 8);
    if (name_len < 0 || 16 + name_len > n) {
      (void)kernel.Close(process, fd);
      return Err::kInval;
    }
    const std::string_view name = block.substr(16, static_cast<size_t>(name_len));
    ++result.blocks_visited;
    for (char c : name) {
      result.chain_hash = (result.chain_hash ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
    if (!options.name_contains.empty() &&
        name.find(options.name_contains) != std::string_view::npos) {
      if (result.names_matched < kProgMaxRecorded) {
        result.matched_offsets.push_back(offset);
      }
      ++result.names_matched;
    }
    if (hop + 1 >= options.max_hops) {
      break;
    }
    offset = next;
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  return result;
}

}  // namespace sled
