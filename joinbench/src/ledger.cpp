// The per-layer ledger of a traced run: each layer's public functions timed
// on their own, on the workload's rows and radius.  Every probe runs under a
// span named after the metric it feeds.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/parallel.hpp"
#include "core/kernels/join_executor.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/calibrate.hpp"
#include "serve/batch_gateway.hpp"
#include "service/sharded_corpus.hpp"
#include "workloads.hpp"

namespace jb {

namespace {

using fasted::MatrixF32;
using fasted::PreparedDataset;
using fasted::service::JoinService;
using fasted::service::ShardedCorpus;
namespace kernels = fasted::kernels;

constexpr std::size_t kKernelRows = 2048;  // corpus rows of the kernel probes
constexpr std::size_t kQueryTile = 128;    // query rows per block tile
constexpr std::size_t kProbeRows = 4096;   // rows of the mutation probe corpus
constexpr std::size_t kProbeShard = 1024;
constexpr std::size_t kKnnBatch = 16;
constexpr std::size_t kKnnK = 10;
constexpr std::size_t kAppendRows = 128;
constexpr std::size_t kEraseRows = 32;
constexpr int kMutationReps = 3;

double ms_of(std::uint64_t t0) { return seconds_since(t0) * 1e3; }

double phase_p50_us(const std::vector<fasted::service::PhaseLatency>& phases,
                    const std::string& name) {
  for (const auto& p : phases) {
    if (name == p.phase) return static_cast<double>(p.p50_ns) * 1e-3;
  }
  return 0.0;
}

std::uint64_t phase_count(const fasted::service::ServiceStats& st,
                          const std::string& name) {
  for (const auto& p : st.phase_latencies) {
    if (name == p.phase) return p.count;
  }
  return 0;
}

MatrixF32 first_rows(const jbinputs::Rows& rows, std::size_t n) {
  MatrixF32 m(n, rows.d);
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(m.row(i), rows.row(i), rows.d * sizeof(float));
  }
  return m;
}

// core/kernels: the registry's best rz_dot kernel on one thread over
// pre-packed panels, panel packing, and the executor with a count sink
// versus a CSR sink.
void kernel_probes(const LedgerInputs& in, Tracer& tracer, Result& r) {
  const std::uint64_t req = tracer.next_request();
  const std::size_t m = std::min(kKernelRows, in.corpus->n);
  const PreparedDataset prep(first_rows(*in.corpus, m));
  const MatrixF32& v = prep.values();
  const std::size_t dims = v.stride();
  const std::size_t panels = (m + kernels::kPanelWidth - 1) / kernels::kPanelWidth;
  std::vector<float> packed(panels * dims * kernels::kPanelWidth);

  {
    Tracer::Span span(tracer, "kernels.pack_panel", req);
    std::vector<double> ns_per_row;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t p = 0; p < panels; ++p) {
        const std::size_t c0 = p * kernels::kPanelWidth;
        kernels::pack_panel(v.row(c0), v.stride(),
                            std::min(kernels::kPanelWidth, m - c0), dims,
                            packed.data() + p * dims * kernels::kPanelWidth);
      }
      ns_per_row.push_back(static_cast<double>(now_ns() - t0) /
                           static_cast<double>(m));
    }
    r.add("kernels.pack_panel.ns_per_row", median(ns_per_row), "ns");
  }

  const kernels::RzDotKernel& kern = kernels::KernelRegistry::global().best();
  float acc[kernels::kQueryBlock * kernels::kPanelWidth];
  float sink = 0;
  const std::size_t tile = std::min(kQueryTile, m);
  // Block shape: each pre-packed panel meets a tile of query rows in blocks
  // of kQueryBlock, as the executor drains a block tile.
  const auto block_pass = [&] {
    for (std::size_t p = 0; p < panels; ++p) {
      const float* panel = packed.data() + p * dims * kernels::kPanelWidth;
      for (std::size_t i0 = 0; i0 + kernels::kQueryBlock <= tile;
           i0 += kernels::kQueryBlock) {
        kern.dot_panel(v.row(i0), v.stride(), kernels::kQueryBlock, panel,
                       dims, acc);
        sink += acc[0];
      }
    }
    return static_cast<double>(panels * (tile / kernels::kQueryBlock) *
                               kernels::kQueryBlock * kernels::kPanelWidth);
  };
  // Row shape: one query row streams through every panel (nq = 1).
  const auto row_pass = [&] {
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t p = 0; p < panels; ++p) {
        kern.dot_panel(v.row(i), v.stride(), 1,
                       packed.data() + p * dims * kernels::kPanelWidth, dims,
                       acc);
        sink += acc[0];
      }
    }
    return static_cast<double>(8 * panels * kernels::kPanelWidth);
  };
  const auto rate = [](const auto& pass) {
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = now_ns();
      double evals = 0;
      while (seconds_since(t0) < 0.04) evals += pass();
      rates.push_back(evals / seconds_since(t0));
    }
    return median(rates);
  };
  double block_rate = 0;
  {
    Tracer::Span span(tracer, "kernels.rz_dot.block", req);
    block_rate = rate(block_pass);
  }
  double row_rate = 0;
  {
    Tracer::Span span(tracer, "kernels.rz_dot.row", req);
    row_rate = rate(row_pass);
  }
  if (sink == 42.0f) note("");  // keeps the kernel calls observable
  r.add("kernels.rz_dot.block_evals_per_s", block_rate, "evals/s");
  r.add("kernels.rz_dot.row_evals_per_s", row_rate, "evals/s");
  const double fma_per_s = in.fma_1t_gflops * 1e9 / 2.0;
  r.add("kernels.rz_dot.fma_floor_share",
        fma_per_s > 0 ? block_rate * static_cast<double>(in.corpus->d) / fma_per_s
                      : 0.0,
        "ratio");

  // Executor: a triangular self-join of the probe rows drained into a count
  // sink, then into the mirrored CSR sink (finalize included).  The sink's
  // cost is a small difference of two large times, so each side is the
  // fastest of several drains: noise only ever adds time.
  const fasted::FastedConfig cfg = fasted::FastedConfig::paper_defaults();
  kernels::JoinInputs ji;
  ji.q_values = &prep.values();
  ji.q_norms = &prep.norms();
  ji.c_values = &prep.values();
  ji.c_norms = &prep.norms();
  const float eps2 = in.eps * in.eps;
  std::vector<double> count_s;
  std::vector<double> csr_s;
  std::uint64_t hits = 0;
  for (int rep = 0; rep < 7; ++rep) {
    {
      Tracer::Span span(tracer, "kernels.execute_join.count", req);
      kernels::JoinPlan plan = kernels::JoinPlan::triangular_self(cfg, m);
      kernels::CountSink count;
      const std::uint64_t t0 = now_ns();
      hits = kernels::execute_join(cfg, plan, ji, eps2, false, count);
      count_s.push_back(seconds_since(t0));
    }
    {
      Tracer::Span span(tracer, "kernels.execute_join.csr", req);
      kernels::JoinPlan plan = kernels::JoinPlan::triangular_self(cfg, m);
      kernels::SelfJoinCsrSink csr(m, true);
      const std::uint64_t t0 = now_ns();
      const std::uint64_t h = kernels::execute_join(cfg, plan, ji, eps2, false, csr);
      const fasted::SelfJoinResult res = csr.finalize();
      csr_s.push_back(seconds_since(t0));
      r.check(h == hits && res.pair_count() == 2 * hits + m,
              "count and CSR sinks see the same pairs");
    }
  }
  const double count_min = *std::min_element(count_s.begin(), count_s.end());
  const double csr_min = *std::min_element(csr_s.begin(), csr_s.end());
  r.add("kernels.execute_join.count_s", count_min, "s");
  r.add("kernels.sink.csr_ns_per_pair",
        hits > 0 ? (csr_min - count_min) * 1e9 / static_cast<double>(hits)
                 : 0.0,
        "ns");
  r.add("kernels.tiles_drained", in.tiles_per_request, "count");
}

// common/parallel: one fork-join over the whole pool.  Each chunk waits
// until every chunk has started, so every worker wakes and joins: an empty
// body would be drained by the calling thread alone before any worker
// woke, which times the admission lock and nothing else.
void parallel_probe(Tracer& tracer, Result& r) {
  const std::uint64_t req = tracer.next_request();
  Tracer::Span span(tracer, "parallel.fork_join", req);
  fasted::ThreadPool& pool = fasted::ThreadPool::global();
  const std::size_t slots = pool.size();
  std::vector<double> us;
  for (int rep = 0; rep < 2000; ++rep) {
    std::atomic<std::size_t> started{0};
    const std::uint64_t t0 = now_ns();
    pool.parallel_for(0, slots, [&](std::size_t b, std::size_t e) {
      started.fetch_add(e - b);
      // Bounded wait: a chunk never waits on a worker that cannot come.
      const std::uint64_t w0 = now_ns();
      while (started.load() < slots && now_ns() - w0 < 2000000) {
      }
    });
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  r.add("parallel.fork_join_us", median(us), "us");
}

// core + data: preparation, one point query on the pinned shard views, and
// calibration of the radius.
void core_probes(const LedgerInputs& in, Tracer& tracer, Result& r) {
  const std::uint64_t req = tracer.next_request();
  {
    Tracer::Span span(tracer, "core.prepare", req);
    const MatrixF32 m = first_rows(*in.corpus, in.corpus->n);
    std::vector<double> rate;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t0 = now_ns();
      const PreparedDataset prep(m);
      rate.push_back(static_cast<double>(prep.rows()) / seconds_since(t0));
    }
    r.add("core.prepare_rows_per_s", median(rate), "rows/s");
  }

  // The same point query through the engine on pinned views and through
  // JoinService::eps_join; the difference is the service's own cost.
  ShardedCorpus& corpus = in.service->sharded();
  const auto snap = corpus.snapshot();
  const std::vector<fasted::CorpusShardView> views =
      ShardedCorpus::shard_views(*snap);
  const fasted::kernels::TombstoneFilter filter =
      ShardedCorpus::tombstone_filter(*snap);
  fasted::JoinOptions opt;
  opt.tombstones = filter.any() ? &filter : nullptr;
  std::vector<double> engine_ms;
  std::vector<double> service_ms;
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t qi = static_cast<std::size_t>(rep) % in.queries->n;
    fasted::service::EpsQuery q;
    q.points = row_matrix(*in.queries, qi);
    q.eps = in.eps;
    const PreparedDataset prep(q.points);
    {
      Tracer::Span span(tracer, "core.query_join", req);
      const std::uint64_t t0 = now_ns();
      const auto out = in.service->engine().query_join(
          prep, std::span<const fasted::CorpusShardView>(views), in.eps, opt);
      engine_ms.push_back(ms_of(t0));
    }
    {
      Tracer::Span span(tracer, "service.eps_join", req);
      const std::uint64_t t0 = now_ns();
      const auto out = in.service->eps_join(q);
      service_ms.push_back(ms_of(t0));
    }
  }
  r.add("core.query_join_ms", median(engine_ms), "ms");
  r.add("service.eps_join_overhead_us",
        (median(service_ms) - median(engine_ms)) * 1e3, "us");

  {
    Tracer::Span span(tracer, "data.calibrate", req);
    const MatrixF32 m = first_rows(*in.corpus, in.corpus->n);
    const std::uint64_t t0 = now_ns();
    fasted::data::calibrate_epsilon(m, 64.0, in.seed, in.calibration_samples);
    r.add("data.calibrate_s", seconds_since(t0), "s");
  }
}

// service: warm kNN, then mutations on a probe corpus of the workload's
// first rows, each followed by the recalibration the next kNN would pay.
void service_probes(const LedgerInputs& in, Tracer& tracer, Result& r) {
  const std::uint64_t req = tracer.next_request();
  const std::size_t n = std::min(kProbeRows, in.corpus->n);
  fasted::service::ShardedCorpusOptions opt;
  opt.shard_capacity = kProbeShard;
  auto corpus = std::make_shared<ShardedCorpus>(first_rows(*in.corpus, n), opt);
  JoinService service(corpus);
  const double target = fasted::service::KnnOptions{}.initial_growth * kKnnK;
  corpus->eps_for_selectivity(target);

  fasted::service::KnnQuery q;
  q.points = first_rows(*in.queries, std::min(kKnnBatch, in.queries->n));
  q.k = kKnnK;
  const fasted::service::ServiceStats before = service.stats();
  std::vector<double> knn_ms;
  double rounds = 0;
  constexpr int kKnnReps = 9;
  for (int rep = 0; rep < kKnnReps; ++rep) {
    Tracer::Span span(tracer, "service.knn", req);
    const std::uint64_t t0 = now_ns();
    const auto res = service.knn(q);
    knn_ms.push_back(ms_of(t0));
    rounds += res.rounds;
  }
  const fasted::service::ServiceStats after = service.stats();
  const double round_joins = static_cast<double>(
      phase_count(after, "knn_round") - phase_count(before, "knn_round"));
  const double brute = static_cast<double>(after.knn_brute_force_queries -
                                           before.knn_brute_force_queries);
  const double nq = static_cast<double>(q.points.rows());
  // Upper bound: every round join is charged the whole batch.
  const double evals = (round_joins * nq + brute) * static_cast<double>(n);
  r.add("service.knn_warm_ms", median(knn_ms), "ms");
  r.add("service.knn_rounds", rounds / kKnnReps, "count");
  r.add("service.knn_eval_ratio",
        evals / (nq * static_cast<double>(corpus->alive()) * kKnnReps),
        "ratio");

  const jbinputs::Rows extra = jbinputs::generate(
      in.shape, in.seed, in.held_out_first, kAppendRows * kMutationReps);
  jbinputs::Rng rng(in.seed ^ 0x1edce5ull);
  std::vector<double> append_ms;
  std::vector<double> erase_ms;
  std::vector<double> calibrate_ms;
  for (int rep = 0; rep < kMutationReps; ++rep) {
    MatrixF32 add(kAppendRows, extra.d);
    for (std::size_t i = 0; i < kAppendRows; ++i) {
      std::memcpy(add.row(i), extra.row(rep * kAppendRows + i),
                  extra.d * sizeof(float));
    }
    {
      Tracer::Span span(tracer, "service.append", req);
      const std::uint64_t t0 = now_ns();
      corpus->append(add);
      append_ms.push_back(ms_of(t0));
    }
    std::vector<std::uint32_t> ids;
    for (std::size_t e = 0; e < kEraseRows; ++e) {
      ids.push_back(static_cast<std::uint32_t>(rng.below(corpus->size())));
    }
    {
      Tracer::Span span(tracer, "service.erase", req);
      const std::uint64_t t0 = now_ns();
      corpus->erase(ids);
      erase_ms.push_back(ms_of(t0));
    }
    {
      Tracer::Span span(tracer, "service.calibrate", req);
      const std::uint64_t t0 = now_ns();
      corpus->eps_for_selectivity(target);
      calibrate_ms.push_back(ms_of(t0));
    }
  }
  r.add("service.append_ms", median(append_ms), "ms");
  r.add("service.erase_ms", median(erase_ms), "ms");
  r.add("service.calibrate_ms", median(calibrate_ms), "ms");
}

// serve: the gateway hop on a 1-row corpus with one client, and a burst of
// nproc clients on the workload's service for the coalescing figures.
void serve_probes(const LedgerInputs& in, Tracer& tracer, Result& r) {
  {
    auto tiny = std::make_shared<ShardedCorpus>(first_rows(*in.corpus, 1));
    fasted::serve::BatchGateway gw(std::make_shared<JoinService>(tiny));
    fasted::service::EpsQuery q;
    q.points = row_matrix(*in.queries, 0);
    q.eps = in.eps;
    std::vector<double> us;
    for (int rep = 0; rep < 200; ++rep) {
      const std::uint64_t req = tracer.next_request();
      Tracer::Span span(tracer, "serve.gateway_hop", req);
      const std::uint64_t t0 = now_ns();
      const auto ticket = gw.try_submit(q);
      if (ticket == nullptr) continue;
      ticket->wait();
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    r.check(us.size() == 200, "an idle gateway admits every hop probe");
    r.add("serve.gateway_hop_us", median(us), "us");
  }

  fasted::serve::BatchGateway gw(in.service);
  const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t k = 0; k < 32; ++k) {
        const std::uint64_t req = tracer.next_request();
        Tracer::Span span(tracer, "serve.burst_request", req);
        fasted::service::EpsQuery q;
        q.points = row_matrix(*in.queries, (c + k * clients) % in.queries->n);
        q.eps = in.eps;
        const auto ticket = gw.try_submit(std::move(q));
        if (ticket == nullptr) {
          rejected.fetch_add(1);
          continue;
        }
        ticket->wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const fasted::serve::GatewayStats st = gw.stats();
  r.check(rejected.load() == 0 && st.failed == 0 && st.expired == 0,
          "the gateway burst is served without rejections or failures");
  r.add("serve.coalescing_factor", st.coalescing_factor, "ratio");
  r.add("serve.window_fill_us", phase_p50_us(st.phase_latencies, "window_fill"),
        "us");
}

}  // namespace

void run_ledger(const LedgerInputs& in, Tracer& tracer, Result& r) {
  kernel_probes(in, tracer, r);
  parallel_probe(tracer, r);
  core_probes(in, tracer, r);
  service_probes(in, tracer, r);
  serve_probes(in, tracer, r);
  r.add("service.admission_wait_us",
        phase_p50_us(in.service->stats().phase_latencies, "admission_wait"),
        "us");
  r.add("bench.trace_overhead_pct", in.trace_overhead_pct, "%");
}

}  // namespace jb
