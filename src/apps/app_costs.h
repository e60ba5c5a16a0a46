// Per-byte user-CPU costs for the modified utilities. Values are late-90s
// workstation ballparks; what matters for the reproduction is that SLEDs-mode
// code paths pay *more* CPU than plain paths ("The increase in execution time
// for small files is all CPU time", §5.2), so that the small-file overhead
// and the CPU/I/O trade-off are visible in the results.
#ifndef SLEDS_SRC_APPS_APP_COSTS_H_
#define SLEDS_SRC_APPS_APP_COSTS_H_

#include "src/common/sim_time.h"

namespace sled {

struct AppCpuCosts {
  // wc: classify each byte (whitespace/word state machine).
  Duration wc_per_byte = Nanoseconds(8);
  // grep: Boyer-Moore-Horspool scan amortizes below 1 cycle/byte, but line
  // assembly and bookkeeping dominate.
  Duration grep_per_byte = Nanoseconds(12);
  // Extra per-byte cost of SLEDs record management and data copying in grep
  // (§5.2: read() instead of mmap() copies data; record handling adds
  // complexity).
  Duration sleds_record_per_byte = Nanoseconds(4);
  // Extra per-byte bookkeeping for order-insensitive apps like wc ("little
  // overhead is generated in modifying the code", §5.2).
  Duration sleds_pick_per_byte = Nanoseconds(1);
  // Per buffered match: linked-list insert plus final sort share.
  Duration grep_per_match = Microseconds(2);
  // FITS pixel conversion (big-endian decode + float convert).
  Duration fits_per_element = Nanoseconds(30);
  // Histogram binning / boxcar accumulation per element.
  Duration image_per_element = Nanoseconds(15);
  // Chain-walk block parse (pointer + name extraction). Charged identically
  // by the userspace oracle (FindApp::RunChain) and the kernel-resident
  // program (ProgSpec::step_cost_ns_per_byte), so the measured difference
  // between the two paths is purely crossings and copies.
  Duration chain_per_byte = Nanoseconds(4);
};

// The per-syscall crossing cost itself lives in CpuCosts::syscall_overhead
// (src/kernel/sim_kernel.h); completion-program variants of the tools below
// eliminate crossings rather than re-pricing them.

inline constexpr int64_t kDefaultAppBuffer = 64 * 1024;

}  // namespace sled

#endif  // SLEDS_SRC_APPS_APP_COSTS_H_
