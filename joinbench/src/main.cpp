// joinbench: the end-to-end and per-layer benchmark of fasted_lib.
//
//   joinbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Workloads: selfjoin_gist, point_sift, gateway_sift, knn_churn_tiny.
// Prints "# ..." notes and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced).  Exits non-zero on bad arguments or when the
// library throws.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: joinbench --workload <selfjoin_gist|point_sift|"
               "gateway_sift|knn_churn_tiny> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jb::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = val == "1";
      } else if (key == "--trace-out") {
        args.trace_path = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(args.seconds > 0)) return usage();

  // Host reference at the start and the end of the run: drift and
  // contention from other tenants show up here, not in the library.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  jb::fma_gflops(threads, 0.05);  // wakes idle CPUs; the first reading is low
  const double fma1_start = jb::fma_gflops(1, 0.1);
  const double fma_all_start = jb::fma_gflops(threads, 0.1);
  args.fma_1t_gflops = fma1_start;

  jb::Result result;
  try {
    if (!jb::run_workload(args, result)) return usage();
  } catch (const std::exception& e) {
    std::cerr << "joinbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const double fma1_end = jb::fma_gflops(1, 0.1);
  const double fma_all_end = jb::fma_gflops(threads, 0.1);
  jb::note("host fma GFLOP/s 1 thread " + std::to_string(fma1_start) + " -> " +
           std::to_string(fma1_end) + ", " + std::to_string(threads) +
           " threads " + std::to_string(fma_all_start) + " -> " +
           std::to_string(fma_all_end));
  if (args.trace) {
    result.add("host.fma_gflops_1t", 0.5 * (fma1_start + fma1_end), "GFLOP/s");
    result.add("host.fma_gflops_all", 0.5 * (fma_all_start + fma_all_end),
               "GFLOP/s");
  }
  for (const jb::Metric& m : result.metrics) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  jb::print_result(result);
  return 0;
}
