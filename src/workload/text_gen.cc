#include "src/workload/text_gen.h"

#include <algorithm>

#include "src/common/units.h"

namespace sled {
namespace {

// One fixed-length line at `line`: words of lowercase letters separated by
// spaces, '\n'-terminated.
void FillLine(char* line, Rng& rng) {
  constexpr int64_t kText = kGenLineLen - 1;
  int64_t at = 0;
  while (at < kText) {
    const int64_t word = std::min<int64_t>(rng.Uniform(2, 9), kText - at);
    for (const int64_t end = at + word; at < end; ++at) {
      line[at] = static_cast<char>('a' + rng.Uniform(0, 25));
    }
    if (at < kText) {
      line[at++] = ' ';
    }
  }
  line[kText] = '\n';
}

}  // namespace

void FillTextLines(std::span<char> out, Rng& rng) {
  for (size_t at = 0; at + kGenLineLen <= out.size(); at += kGenLineLen) {
    FillLine(out.data() + at, rng);
  }
}

Result<int64_t> GenerateTextFile(SimKernel& kernel, Process& process, std::string_view path,
                                 int64_t bytes, Rng& rng) {
  constexpr int64_t kChunk = 256 * kKiB;  // a whole number of lines
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Create(process, path));
  std::string buf(static_cast<size_t>(kChunk), '\0');
  int64_t written = 0;
  int64_t lines = 0;
  while (written < bytes) {
    int64_t len = std::min(kChunk, (bytes - written) / kGenLineLen * kGenLineLen);
    if (len > 0) {
      FillTextLines(std::span<char>(buf.data(), static_cast<size_t>(len)), rng);
      lines += len / kGenLineLen;
    } else {
      // Tail shorter than a line: fill with 'z' and a final newline.
      len = bytes - written;
      std::fill_n(buf.begin(), len - 1, 'z');
      buf[static_cast<size_t>(len - 1)] = '\n';
      ++lines;
    }
    const std::span<const char> chunk(buf.data(), static_cast<size_t>(len));
    SLED_ASSIGN_OR_RETURN(int64_t n, kernel.Write(process, fd, chunk));
    written += n;
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  return lines;
}

Result<int64_t> PlaceMarker(SimKernel& kernel, Process& process, std::string_view path,
                            int64_t byte_offset) {
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  SLED_ASSIGN_OR_RETURN(InodeAttr attr, kernel.Fstat(process, fd));
  if (attr.size < kGenLineLen) {
    (void)kernel.Close(process, fd);  // error path: kInval is the real story
    return Err::kInval;
  }
  // Snap to the start of the generator line containing byte_offset; the last
  // (possibly ragged) line is avoided.
  int64_t line_start = (byte_offset / kGenLineLen) * kGenLineLen;
  line_start = std::min(line_start, ((attr.size / kGenLineLen) - 1) * kGenLineLen);
  std::string line(static_cast<size_t>(kGenLineLen - 1), 'q');
  std::copy(kGrepMarker.begin(), kGrepMarker.end(), line.begin() + 4);
  line.push_back('\n');
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, line_start, Whence::kSet));
  SLED_RETURN_IF_ERROR(kernel.Write(process, fd, std::span<const char>(line.data(), line.size())));
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  return line_start;
}

Result<void> RemoveMarker(SimKernel& kernel, Process& process, std::string_view path,
                          int64_t marker_offset, Rng& rng) {
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  std::string line(static_cast<size_t>(kGenLineLen), '\0');
  FillLine(line.data(), rng);
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, marker_offset, Whence::kSet));
  SLED_RETURN_IF_ERROR(kernel.Write(process, fd, std::span<const char>(line.data(), line.size())));
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  return Result<void>::Ok();
}

Result<int64_t> MoveMarkerScrubbed(SimKernel& kernel, Process& process, std::string_view path,
                                   int64_t old_offset, int64_t new_byte_offset, Rng& rng) {
  const bool old_was_cached = [&] {
    if (old_offset < 0) {
      return false;
    }
    auto r = kernel.vfs().Resolve(path);
    if (!r.ok()) {
      return false;
    }
    const FileId fid = Vfs::MakeFileId(r->fs_id, r->ino);
    return kernel.cache().Contains({fid, old_offset / kPageSize});
  }();
  if (old_offset >= 0) {
    SLED_RETURN_IF_ERROR(RemoveMarker(kernel, process, path, old_offset, rng));
  }
  SLED_ASSIGN_OR_RETURN(int64_t placed, PlaceMarker(kernel, process, path, new_byte_offset));
  const bool new_was_cached = [&] {
    auto r = kernel.vfs().Resolve(path);
    if (!r.ok()) {
      return false;
    }
    const FileId fid = Vfs::MakeFileId(r->fs_id, r->ino);
    // Contains() is true after the write; what matters is whether the page
    // was resident *before* the setup touched it — approximated by whether
    // it sat inside a resident neighbourhood.
    return kernel.cache().Contains({fid, placed / kPageSize - 1}) ||
           kernel.cache().Contains({fid, (placed + kGenLineLen) / kPageSize + 1});
  }();

  // Flush the dirty marker pages, then evict any page of the two touched
  // lines that was not already resident before the move.
  SLED_ASSIGN_OR_RETURN(Vfs::Resolved r, kernel.vfs().Resolve(path));
  const FileId fid = Vfs::MakeFileId(r.fs_id, r.ino);
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  SLED_RETURN_IF_ERROR(kernel.Fsync(process, fd));
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
  auto scrub = [&](int64_t offset, bool keep) {
    if (offset < 0 || keep) {
      return;
    }
    for (int64_t page = offset / kPageSize; page <= (offset + kGenLineLen - 1) / kPageSize;
         ++page) {
      kernel.cache().Remove({fid, page});
    }
  };
  scrub(old_offset, old_was_cached);
  scrub(placed, new_was_cached);
  return placed;
}

}  // namespace sled
