#include "src/progs/progs_env.h"

#include <cstdlib>

namespace sled {

bool ProgsEnabledFromEnv() {
  static const bool enabled = [] {
    const char* v = std::getenv("SLEDS_PROGS");
    return v != nullptr && atoi(v) != 0;
  }();
  return enabled;
}

}  // namespace sled
