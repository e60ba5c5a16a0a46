#include "src/common/log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace sled {

void FatalF(const char* file, int line, const char* fmt, ...) {
  std::fprintf(stderr, "[FATAL %s:%d] ", file, line);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace sled
