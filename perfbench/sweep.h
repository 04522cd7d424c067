// The paper-sweep workload: harness::run_sweeps over the Fig. 9 grid.
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

Result run_sweep_workload(std::uint64_t seed, double seconds, bool trace);

}  // namespace perfbench
