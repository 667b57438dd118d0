// The four workloads and the per-layer ledger.  Every workload builds its
// inputs from the seed, times only fasted_lib's calls, checks the library's
// outputs against the benchmark's own reference, and fills a jb::Result:
// end-to-end metrics when untraced, per-layer metrics when traced.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fasted.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "service/join_service.hpp"

namespace jb {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome-trace JSON output of traced runs
  double fma_1t_gflops = 0;  // host reference measured at the run's start
};

// False when `name` is no workload; otherwise runs it into `out`.
bool run_workload(const RunArgs& args, Result& out);

fasted::MatrixF32 to_matrix(const jbinputs::Rows& rows);
fasted::MatrixF32 row_matrix(const jbinputs::Rows& rows, std::size_t i);

// What a traced run hands the ledger: the workload's corpus and radius, a
// JoinService over a ShardedCorpus of that corpus, and the numbers only
// the workload's own loop can give.
struct LedgerInputs {
  jbinputs::Shape shape = jbinputs::Shape::kSift;
  std::uint64_t seed = 1;
  const jbinputs::Rows* corpus = nullptr;
  const jbinputs::Rows* queries = nullptr;  // held-out rows
  std::size_t held_out_first = 0;  // index past every row the workload uses
  float eps = 0;
  std::size_t calibration_samples = 256;  // the set-up's calibrate_epsilon
  std::shared_ptr<fasted::service::JoinService> service;
  double tiles_per_request = 0;
  double trace_overhead_pct = 0;
  double fma_1t_gflops = 0;
};

void run_ledger(const LedgerInputs& in, Tracer& tracer, Result& out);

}  // namespace jb
