// Fatal invariant checks.
#ifndef SLEDS_SRC_COMMON_LOG_H_
#define SLEDS_SRC_COMMON_LOG_H_

namespace sled {

// printf-style message to stderr, then abort.
[[noreturn]] void FatalF(const char* file, int line, const char* fmt, ...);

}  // namespace sled

// Invariant check: aborts with a message when `cond` is false. Used for
// programmer errors (API misuse, broken internal invariants), never for
// recoverable I/O failures — those go through Result<T>.
#define SLED_CHECK(cond, ...)                         \
  do {                                                \
    if (!(cond)) {                                    \
      ::sled::FatalF(__FILE__, __LINE__, __VA_ARGS__); \
    }                                                 \
  } while (0)

#endif  // SLEDS_SRC_COMMON_LOG_H_
