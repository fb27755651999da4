// Benchmark runner binary: runs one workload and prints a provenance line
// and, as the last line of stdout, the result JSON (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  perfbench::pin_process_for(opt.workload);
  const int workers = perfbench::pool_workers_for(opt.workload);
  nitho::set_parallel_workers(workers);
  perfbench::Report r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> machine = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"pool_workers", std::to_string(nitho::parallel_workers())},
      {"simd_arm", nitho::simd::arm_name(nitho::simd::active_arm())},
      {"compiler", "g++ " __VERSION__},
      {"input_pool_mb",
       std::to_string(perfbench::input_pool_mb(opt.workload))}};
  machine.insert(machine.end(), r.notes.begin(), r.notes.end());
  std::printf("%s\n%s\n", perfbench::machine_json(machine).c_str(),
              perfbench::to_json(r).c_str());
  return 0;
}
