// Text-file workload generation for the wc / grep experiments: files of
// newline-terminated lines of pseudo-random words, with an optional unique
// marker line that grep searches for (placed, and re-placed between runs, at
// a random position — "a single match that was placed randomly in the test
// file", §5.2).
#ifndef SLEDS_SRC_WORKLOAD_TEXT_GEN_H_
#define SLEDS_SRC_WORKLOAD_TEXT_GEN_H_

#include <span>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

// The unique token used as grep's needle. Generated filler never contains
// uppercase characters, so the marker cannot occur by accident.
inline constexpr std::string_view kGrepMarker = "XNEEDLEX";

// Line length used by the generator (fixed so markers can be swapped
// in place without changing the file size).
inline constexpr int64_t kGenLineLen = 64;

// Fill `out` with generator lines, kGenLineLen bytes each (a trailing
// fraction of a line is left untouched): the bytes GenerateTextFile writes.
void FillTextLines(std::span<char> out, Rng& rng);

// Create `path` with `bytes` bytes of lowercase text lines; when `bytes` is
// not a multiple of kGenLineLen the file ends in one shorter "zz...z\n" line.
// Returns the number of lines written, that last one included.
Result<int64_t> GenerateTextFile(SimKernel& kernel, Process& process, std::string_view path,
                                 int64_t bytes, Rng& rng);

// Place the marker on the line containing `byte_offset`, replacing that
// line's content (file size unchanged). Returns the marker line's offset.
Result<int64_t> PlaceMarker(SimKernel& kernel, Process& process, std::string_view path,
                            int64_t byte_offset);

// Overwrite the marker line at `marker_offset` with filler again.
Result<void> RemoveMarker(SimKernel& kernel, Process& process, std::string_view path,
                          int64_t marker_offset, Rng& rng);

// Move the marker (removing the old one at `old_offset`, < 0 if none) to the
// line containing `new_byte_offset`, then flush and evict every page the move
// touched. This makes the marker's position independent of the cache state —
// in the paper's experiment the match was part of the file, not a fresh
// write, so its page is only cached if a previous *run* read it.
Result<int64_t> MoveMarkerScrubbed(SimKernel& kernel, Process& process, std::string_view path,
                                   int64_t old_offset, int64_t new_byte_offset, Rng& rng);

}  // namespace sled

#endif  // SLEDS_SRC_WORKLOAD_TEXT_GEN_H_
