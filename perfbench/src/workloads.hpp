#pragma once
// The benchmark's workloads.  Each builds its inputs from the seed, sets the
// system up (timed), runs fixed-work timed phases for about `seconds`, and
// checks the outputs.  With trace off the report holds the end-to-end
// metrics; with trace on it holds the per-layer metrics (README.md).

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// paper_serve, tile_serve, train, ilt.
const std::vector<std::string>& workload_names();

/// Pool size a workload runs with (the caller sets it before running).
int pool_workers_for(const std::string& workload);

/// Restricts the process to the CPUs a workload runs on (the caller does
/// this first, before any thread is started).
void pin_process_for(const std::string& workload);

/// Bytes of input masks the workload's generator holds (its fixed pool).
double input_pool_mb(const std::string& workload);

/// Throws std::invalid_argument on an unknown workload.
Report run_workload(const RunOptions& opt);

}  // namespace perfbench
