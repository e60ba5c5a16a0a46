// Traced-run probes: wall-clock cost of single public functions, timed
// against the workload's own file after its timed ops are done, so they
// cannot perturb the measured op sequence.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>

#include "src/kernel/sim_kernel.h"
#include "src/sleds/picker.h"
#include "workloads.h"

namespace perfbench {

struct ProbeSpec {
  std::string path;            // the workload's input file
  sled::PickerOptions picker;  // how the workload's SLEDs variants pick
  int64_t data_offset = 0;     // first pixel byte, for the FITS decode probe
};

// Drops the kernel's caches part way through (the miss-read probe), so call
// it only once the timed ops are finished.
ProbeResults RunProbes(sled::SimKernel& kernel, const ProbeSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
