// The SparseNN benchmark.
//
//   perfbench --workload <fig7-uvon|eie-uvoff|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.csv>]
//
// Prints a machine fingerprint, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs the per-layer ones.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/simd.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  // The inputs are the procedural digits; never real IDX files.
  unsetenv("SPARSENN_DATA_DIR");
  try {
    const Args args = parse_args(argc, argv);
    std::cout << "# machine: " << std::thread::hardware_concurrency()
              << " hardware threads, SIMD " << sparsenn::to_string(sparsenn::active_simd_isa())
              << ", compiler " << __VERSION__ << "\n";
    Report report;
    if (args.workload == "fig7-uvon")
      run_sim_workload(args, true, process_start, report);
    else if (args.workload == "eie-uvoff")
      run_sim_workload(args, false, process_start, report);
    else if (args.workload == "serve-mix")
      run_serve_workload(args, process_start, report);
    else
      throw std::invalid_argument("unknown workload " + args.workload);
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
