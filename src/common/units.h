// Byte-size units and page constants used throughout the simulator.
#ifndef SLEDS_SRC_COMMON_UNITS_H_
#define SLEDS_SRC_COMMON_UNITS_H_

#include <cstdint>
#include <limits>

namespace sled {

inline constexpr int64_t kKiB = 1024;
inline constexpr int64_t kMiB = 1024 * kKiB;
inline constexpr int64_t kGiB = 1024 * kMiB;

// Size of a virtual-memory / file-cache page. Linux 2.2 on x86 used 4 KiB
// pages; all SLED offsets and lengths produced by the kernel are initially
// page-aligned (the library may later pull them in to record boundaries).
inline constexpr int64_t kPageSize = 4 * kKiB;

// The largest page-aligned int64: the bound on every file offset, file size
// and byte-range end, so PagesFor and PageCeil of any of them cannot overflow.
inline constexpr int64_t kMaxFileBytes =
    std::numeric_limits<int64_t>::max() / kPageSize * kPageSize;

constexpr int64_t KiB(int64_t n) { return n * kKiB; }
constexpr int64_t MiB(int64_t n) { return n * kMiB; }
constexpr int64_t GiB(int64_t n) { return n * kGiB; }

// Number of pages needed to hold `bytes` bytes (rounding up).
constexpr int64_t PagesFor(int64_t bytes) { return (bytes + kPageSize - 1) / kPageSize; }

// First byte of the page containing `offset`.
constexpr int64_t PageFloor(int64_t offset) { return offset - (offset % kPageSize); }

// First byte of the page after the one containing `offset - 1`.
constexpr int64_t PageCeil(int64_t offset) { return PageFloor(offset + kPageSize - 1); }

}  // namespace sled

#endif  // SLEDS_SRC_COMMON_UNITS_H_
