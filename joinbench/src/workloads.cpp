#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "common/parallel.hpp"
#include "data/calibrate.hpp"
#include "reference.hpp"
#include "serve/batch_gateway.hpp"
#include "service/sharded_corpus.hpp"

namespace jb {

using fasted::MatrixF32;
using fasted::service::JoinService;
using fasted::service::ShardedCorpus;
using jbinputs::Rows;
using jbinputs::Shape;

MatrixF32 to_matrix(const Rows& rows) {
  MatrixF32 m(rows.n, rows.d);
  for (std::size_t i = 0; i < rows.n; ++i) {
    std::memcpy(m.row(i), rows.row(i), rows.d * sizeof(float));
  }
  return m;
}

MatrixF32 row_matrix(const Rows& rows, std::size_t i) {
  MatrixF32 m(1, rows.d);
  std::memcpy(m.row(0), rows.row(i), rows.d * sizeof(float));
  return m;
}

namespace {

// The radius every eps workload is calibrated to: the paper's S = 64.
constexpr double kSelectivity = 64.0;

// The set-up's calibration of the radius, on `samples` sample rows.  More
// rows than the library's default 256 pin the achieved selectivity closer
// to S across seeds (the self-join's output, and so its cost, with it) and
// make the cold set-up long enough that a momentary stall of the host moves
// it less.
float calibrate(const MatrixF32& m, std::uint64_t seed, std::size_t samples) {
  return fasted::data::calibrate_epsilon(m, kSelectivity, seed, samples).eps;
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

std::uint64_t tiles_of(const std::vector<fasted::DomainLoad>& loads) {
  std::uint64_t t = 0;
  for (const fasted::DomainLoad& l : loads) t += l.total();
  return t;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// What one measured loop produced.  The loop is cut into windows (a
// self-join, a pass over the point-query pool, half a second of gateway
// traffic, one kNN corpus cycle) and the rate metrics are medians over the
// windows, so that a stall caused by another tenant of the host moves them
// less than a mean would.
struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> rows_per_s;
  std::vector<double> evals_per_s;
  std::vector<double> ingest_per_s;  // rows taken in per second of ingest
  std::uint64_t tiles = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // The open window: query rows answered, distance evaluations, seconds.
  double win_rows = 0;
  double win_evals = 0;
  double win_s = 0;

  void count(double rows, double evals, double seconds) {
    win_rows += rows;
    win_evals += evals;
    win_s += seconds;
  }
  void close_window() {
    if (win_s > 0) {
      rows_per_s.push_back(win_rows / win_s);
      evals_per_s.push_back(win_evals / win_s);
    }
    win_rows = win_evals = win_s = 0;
  }
  double queries_per_s() const { return median(rows_per_s); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Library set-up calls only; returns the seconds they took.
  virtual double setup() = 0;
  // Warm-up and the correctness checks that need the whole output.
  virtual void verify(Result& r) = 0;
  // Runs whole rounds of the workload's operations until `seconds` passed.
  virtual void loop(double seconds, Tracer& tracer, LoopStats& s,
                    Result& r) = 0;
  virtual LedgerInputs ledger_inputs() = 0;
};

// ---------------------------------------------------------------- eps checks

// Matches of one query against the reference corpus, ascending id.
std::vector<fasted::QueryMatch> reference_matches(const jbref::Prepared& q,
                                                  std::size_t qi,
                                                  const jbref::Prepared& c,
                                                  float eps2) {
  std::vector<fasted::QueryMatch> out;
  for (std::size_t j = 0; j < c.n; ++j) {
    const float d2 = jbref::pair_dist2(q, qi, c, j);
    if (d2 <= eps2) out.push_back({static_cast<std::uint32_t>(j), d2});
  }
  return out;
}

void check_matches(std::span<const fasted::QueryMatch> got,
                   const std::vector<fasted::QueryMatch>& want,
                   const std::string& what, Result& r) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].id == want[i].id && same_bits(got[i].dist2, want[i].dist2);
  }
  r.check(same, what + ": " + std::to_string(got.size()) +
                    " matches, reference has " + std::to_string(want.size()) +
                    " (ids and FP32 distances must agree)");
}

// ------------------------------------------------------------ selfjoin_gist

// A Gist-shaped corpus of several thousand rows, self-joined with the full
// CSR result at the radius of S = 64.  The rz_dot kernel does most of the
// work; the service and serve layers do none.
class SelfJoinGist final : public Workload {
 public:
  static constexpr std::size_t kRows = 4096;
  static constexpr std::size_t kSampled = 8;
  static constexpr std::size_t kBoundRows = 32;
  static constexpr std::size_t kCalibrationSamples = 1024;

  explicit SelfJoinGist(std::uint64_t seed)
      : seed_(seed),
        rows_(jbinputs::generate(Shape::kGist, seed, 0, kRows)),
        queries_(jbinputs::generate(Shape::kGist, seed, kRows, 64)),
        matrix_(to_matrix(rows_)) {}

  double setup() override {
    const std::uint64_t t0 = now_ns();
    prepared_ = std::make_unique<fasted::PreparedDataset>(matrix_);
    eps_ = calibrate(matrix_, seed_, kCalibrationSamples);
    return seconds_since(t0);
  }

  void verify(Result& r) override {
    const fasted::JoinOutput out = engine_.self_join(*prepared_, eps_);
    pairs_ = out.pair_count;
    const fasted::SelfJoinResult& res = out.result;
    note("selfjoin_gist: n=" + std::to_string(kRows) + " eps=" + fmt(eps_) +
         " pairs=" + std::to_string(pairs_) +
         " selectivity=" + fmt(res.selectivity()));
    r.check(res.num_points() == kRows, "self-join result has a row per point");
    r.check(res.pair_count() == pairs_, "pair_count equals the CSR size");
    bool self = true;
    bool symmetric = true;
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto nb = res.neighbors_of(i);
      self = self && std::binary_search(nb.begin(), nb.end(),
                                        static_cast<std::uint32_t>(i));
      for (const std::uint32_t j : nb) {
        const auto back = res.neighbors_of(j);
        symmetric = symmetric &&
                    std::binary_search(back.begin(), back.end(),
                                       static_cast<std::uint32_t>(i));
      }
    }
    r.check(self, "every self-join row contains itself");
    r.check(symmetric, "self-join result is symmetric");

    const jbref::Prepared ref = jbref::prepare(rows_.values.data(), kRows,
                                               rows_.d);
    const float eps2 = eps_ * eps_;
    for (std::size_t s = 0; s < kSampled; ++s) {
      const std::size_t i = (s * 2654435761u + seed_) % kRows;
      std::vector<std::uint32_t> want;
      for (std::size_t j = 0; j < kRows; ++j) {
        if (j == i || jbref::pair_dist2(ref, i, ref, j) <= eps2) {
          want.push_back(static_cast<std::uint32_t>(j));
        }
      }
      const auto got = res.neighbors_of(i);
      r.check(std::equal(got.begin(), got.end(), want.begin(), want.end()),
              "self-join row " + std::to_string(i) + " has " +
                  std::to_string(got.size()) + " neighbours, reference " +
                  std::to_string(want.size()));
    }

    // The method's FP64 bound on a sample of rows.
    const jbref::BoundInputs bin =
        jbref::bound_inputs(rows_.values.data(), kRows, rows_.d);
    const double delta = jbref::bound_delta(bin, eps_);
    std::size_t missed = 0;
    std::size_t stray = 0;
    for (std::size_t s = 0; s < kBoundRows; ++s) {
      const std::size_t i = (s * 40503u + 17 * seed_) % kRows;
      const auto nb = res.neighbors_of(i);
      for (std::size_t j = 0; j < kRows; ++j) {
        const double d = std::sqrt(jbref::dist2_f64(rows_.row(i), rows_.row(j),
                                                    rows_.d));
        const bool reported = std::binary_search(
            nb.begin(), nb.end(), static_cast<std::uint32_t>(j));
        if (d < eps_ * (1.0 - delta) && !reported) ++missed;
        if (reported && d > eps_ * (1.0 + delta)) ++stray;
      }
    }
    note("selfjoin_gist: FP64 bound delta=" + fmt(delta) + " over " +
         std::to_string(kBoundRows) + " rows");
    r.check(missed == 0, std::to_string(missed) +
                             " pairs below eps(1-delta) in FP64 not reported");
    r.check(stray == 0, std::to_string(stray) +
                            " reported pairs beyond eps(1+delta) in FP64");
  }

  void loop(double seconds, Tracer& tracer, LoopStats& s,
            Result& r) override {
    fasted::ThreadPool& pool = fasted::ThreadPool::global();
    const fasted::DomainLoadSnapshot base = pool.domain_load_snapshot();
    const double evals = 0.5 * static_cast<double>(kRows) * (kRows - 1);
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      const std::uint64_t req = tracer.next_request();
      Tracer::Span span(tracer, "self_join", req);
      const std::uint64_t t0 = now_ns();
      const fasted::JoinOutput out = engine_.self_join(*prepared_, eps_);
      const double dt = seconds_since(t0);
      ++s.attempted;
      s.latency_ms.push_back(dt * 1e3);
      s.count(kRows, evals, dt);
      s.close_window();
      r.check(out.pair_count == pairs_ &&
                  out.result.pair_count() == pairs_,
              "every self-join returns the verified pair count");
      // One ingest of the corpus per window, spread over the run like the
      // windows themselves.
      const std::uint64_t t1 = now_ns();
      const fasted::PreparedDataset again(matrix_);
      s.ingest_per_s.push_back(static_cast<double>(again.rows()) /
                               seconds_since(t1));
    }
    s.tiles += tiles_of(pool.domain_loads_since(base));
  }

  LedgerInputs ledger_inputs() override {
    LedgerInputs in;
    in.shape = Shape::kGist;
    in.seed = seed_;
    in.corpus = &rows_;
    in.queries = &queries_;
    in.held_out_first = kRows + queries_.n;
    in.eps = eps_;
    in.calibration_samples = kCalibrationSamples;
    fasted::service::ShardedCorpusOptions opt;
    opt.shards = 4;
    in.service = std::make_shared<JoinService>(
        std::make_shared<ShardedCorpus>(to_matrix(rows_), opt));
    return in;
  }

 private:
  std::uint64_t seed_;
  Rows rows_;
  Rows queries_;
  MatrixF32 matrix_;
  fasted::FastedEngine engine_;
  std::unique_ptr<fasted::PreparedDataset> prepared_;
  float eps_ = 0;
  std::uint64_t pairs_ = 0;
};

// --------------------------------------------------- point_sift, gateway_sift

// A resident Sift-shaped ShardedCorpus of tens of thousands of rows and a
// pool of single-row point queries (held-out rows of the same set) at the
// radius of S = 64.  point_sift sends them from one client straight into
// JoinService::eps_join; gateway_sift sends the same queries from nproc
// clients through serve::BatchGateway.  Both check every answer's pair
// count against one batched eps_join of the whole pool (a third path), and
// sampled answers against the reference.
class PointSift : public Workload {
 public:
  static constexpr std::size_t kRows = 32768;
  static constexpr std::size_t kShards = 4;
  static constexpr std::size_t kPool = 512;
  static constexpr std::size_t kSampled = 8;
  static constexpr std::size_t kCalibrationSamples = 512;

  explicit PointSift(std::uint64_t seed)
      : seed_(seed),
        rows_(jbinputs::generate(Shape::kSift, seed, 0, kRows)),
        queries_(jbinputs::generate(Shape::kSift, seed, kRows, kPool)) {}

  double setup() override {
    MatrixF32 m = to_matrix(rows_);
    const std::uint64_t t0 = now_ns();
    eps_ = calibrate(m, seed_, kCalibrationSamples);
    corpus_ = std::make_shared<ShardedCorpus>(std::move(m), options());
    service_ = std::make_shared<JoinService>(corpus_);
    return seconds_since(t0) + start_serving();
  }

  void verify(Result& r) override {
    requests_.reserve(kPool);
    for (std::size_t q = 0; q < kPool; ++q) {
      fasted::service::EpsQuery req;
      req.points = row_matrix(queries_, q);
      req.eps = eps_;
      requests_.push_back(std::move(req));
    }
    fasted::service::EpsQuery batch;
    batch.points = to_matrix(queries_);
    batch.eps = eps_;
    const fasted::QueryJoinOutput out = service_->eps_join(batch);
    expected_.resize(kPool);
    std::uint64_t total = 0;
    for (std::size_t q = 0; q < kPool; ++q) {
      expected_[q] = out.result.degree(q);
      total += expected_[q];
    }
    note("sift pool: n=" + std::to_string(kRows) + " queries=" +
         std::to_string(kPool) + " eps=" + fmt(eps_) + " pool_pairs=" +
         std::to_string(total));
    r.check(out.pair_count == total, "batched pair_count equals its CSR size");

    const jbref::Prepared ref = jbref::prepare(rows_.values.data(), kRows,
                                               rows_.d);
    const jbref::Prepared refq =
        jbref::prepare(queries_.values.data(), kPool, queries_.d);
    for (std::size_t s = 0; s < kSampled; ++s) {
      const std::size_t q = (s * 61 + seed_) % kPool;
      const auto want = reference_matches(refq, q, ref, eps_ * eps_);
      check_matches(out.result.matches_of(q), want,
                    "point query " + std::to_string(q), r);
      // The same query alone, through this workload's own path.
      check_matches(serve_one_checked(q, r), want,
                    "single point query " + std::to_string(q), r);
    }
  }

  void loop(double seconds, Tracer& tracer, LoopStats& s,
            Result& r) override {
    const std::uint64_t tiles0 = service_tiles();
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      for (std::size_t q = 0; q < kPool; ++q) {
        const std::uint64_t req = tracer.next_request();
        Tracer::Span span(tracer, "eps_join", req);
        const std::uint64_t t0 = now_ns();
        const fasted::QueryJoinOutput out = service_->eps_join(requests_[q]);
        const double dt = seconds_since(t0);
        ++s.attempted;
        s.latency_ms.push_back(dt * 1e3);
        s.count(1, static_cast<double>(kRows), dt);
        if (out.pair_count != expected_[q]) {
          r.check(false, "point query " + std::to_string(q) + " returned " +
                             std::to_string(out.pair_count) + " pairs, batch " +
                             std::to_string(expected_[q]));
        }
      }
      s.close_window();
      sample_ingest(s);
    }
    s.tiles += service_tiles() - tiles0;
  }

  LedgerInputs ledger_inputs() override {
    LedgerInputs in;
    in.shape = Shape::kSift;
    in.seed = seed_;
    in.corpus = &rows_;
    in.queries = &queries_;
    in.held_out_first = kRows + kPool;
    in.eps = eps_;
    in.calibration_samples = kCalibrationSamples;
    in.service = service_;
    return in;
  }

 protected:
  static fasted::service::ShardedCorpusOptions options() {
    fasted::service::ShardedCorpusOptions opt;
    opt.shards = kShards;
    return opt;
  }
  // Extra set-up a subclass needs before serving; returns its seconds.
  virtual double start_serving() { return 0; }
  virtual std::vector<fasted::QueryMatch> serve_one_checked(std::size_t q,
                                                            Result&) {
    const fasted::QueryJoinOutput out = service_->eps_join(requests_[q]);
    const auto m = out.result.matches_of(0);
    return {m.begin(), m.end()};
  }
  std::uint64_t service_tiles() const {
    return tiles_of(service_->stats().domain_loads);
  }
  // One ingest of the whole corpus into a fresh ShardedCorpus.
  void sample_ingest(LoopStats& s) const {
    MatrixF32 m = to_matrix(rows_);
    const std::uint64_t t0 = now_ns();
    const ShardedCorpus again(std::move(m), options());
    s.ingest_per_s.push_back(static_cast<double>(again.size()) /
                             seconds_since(t0));
  }

  std::uint64_t seed_;
  Rows rows_;
  Rows queries_;
  float eps_ = 0;
  std::shared_ptr<ShardedCorpus> corpus_;
  std::shared_ptr<JoinService> service_;
  std::vector<fasted::service::EpsQuery> requests_;
  std::vector<std::uint64_t> expected_;
};

class GatewaySift final : public PointSift {
 public:
  static constexpr int kSegments = 4;
  static constexpr std::size_t kIngestPerSegment = 4;

  using PointSift::PointSift;

  // The clients serve in a few segments; between segments, with the
  // clients stopped, the corpus ingest is sampled, so that its samples are
  // spread over the run and do not compete with the clients.
  void loop(double seconds, Tracer& tracer, LoopStats& s,
            Result& r) override {
    const std::uint64_t tiles0 = service_tiles();
    for (int seg = 0; seg < kSegments; ++seg) {
      serve_for(seconds / kSegments, tracer, s, r);
      for (std::size_t i = 0; i < kIngestPerSegment; ++i) sample_ingest(s);
    }
    s.tiles += service_tiles() - tiles0;
  }

 private:
  void serve_for(double seconds, Tracer& tracer, LoopStats& s, Result& r) {
    const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answered{0};
    std::vector<LoopStats> per(clients);
    std::vector<std::string> errors(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const std::uint64_t start = now_ns();
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        LoopStats& mine = per[c];
        try {
          // Each client owns every clients-th query of the pool and sends
          // its whole share per pass, waiting for each answer.
          while (!stop.load(std::memory_order_relaxed)) {
            for (std::size_t q = c; q < kPool; q += clients) {
              const std::uint64_t req = tracer.next_request();
              Tracer::Span span(tracer, "gateway_request", req);
              const std::uint64_t t0 = now_ns();
              fasted::serve::BatchGateway::TicketPtr ticket;
              {
                Tracer::Span sub(tracer, "try_submit", req, span.id());
                ticket = gateway_->try_submit(requests_[q]);
              }
              ++mine.attempted;
              if (ticket == nullptr) {
                ++mine.failed;  // rejected at admission
                continue;
              }
              const fasted::serve::BatchGateway::Response* resp = nullptr;
              {
                Tracer::Span sub(tracer, "wait", req, span.id());
                resp = &ticket->wait();
              }
              const double dt = seconds_since(t0);
              if (resp->state != fasted::serve::RequestState::kDone) {
                ++mine.failed;  // expired or failed
                continue;
              }
              mine.latency_ms.push_back(dt * 1e3);
              answered.fetch_add(1, std::memory_order_relaxed);
              if (resp->eps.pair_count != expected_[q] && errors[c].empty()) {
                errors[c] = "gateway query " + std::to_string(q) +
                            " returned " +
                            std::to_string(resp->eps.pair_count) +
                            " pairs, batch " + std::to_string(expected_[q]);
              }
            }
          }
        } catch (const std::exception& e) {
          errors[c] = std::string("gateway client: ") + e.what();
        }
      });
    }
    // Windows of half a second of wall time, read from the answer count.
    std::uint64_t w0 = start;
    std::uint64_t a0 = 0;
    while (seconds_since(start) < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      const std::uint64_t w1 = now_ns();
      const std::uint64_t a1 = answered.load(std::memory_order_relaxed);
      const double rows = static_cast<double>(a1 - a0);
      s.count(rows, rows * static_cast<double>(kRows),
              static_cast<double>(w1 - w0) * 1e-9);
      s.close_window();
      w0 = w1;
      a0 = a1;
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    for (unsigned c = 0; c < clients; ++c) {
      s.latency_ms.insert(s.latency_ms.end(), per[c].latency_ms.begin(),
                          per[c].latency_ms.end());
      s.attempted += per[c].attempted;
      s.failed += per[c].failed;
      r.check(errors[c].empty(), errors[c]);
    }
  }

  double start_serving() override {
    const std::uint64_t t0 = now_ns();
    gateway_ = std::make_unique<fasted::serve::BatchGateway>(service_);
    return seconds_since(t0);
  }

  std::vector<fasted::QueryMatch> serve_one_checked(std::size_t q,
                                                    Result& r) override {
    const auto ticket = gateway_->try_submit(requests_[q]);
    r.check(ticket != nullptr, "gateway admits a request when idle");
    if (ticket == nullptr) return {};
    const auto& resp = ticket->wait();
    r.check(resp.state == fasted::serve::RequestState::kDone,
            "gateway serves a valid request");
    const auto m = resp.eps.result.matches_of(0);
    return {m.begin(), m.end()};
  }

  std::unique_ptr<fasted::serve::BatchGateway> gateway_;
};

// ------------------------------------------------------------ knn_churn_tiny

// 16-row, k = 10 kNN batches over a sharded Tiny-shaped corpus, with writes
// beside the reads: each round appends held-out rows and erases live ids,
// then serves a few dozen requests.  The first request after a round's
// mutations pays the corpus recalibration.  Every kRounds rounds the corpus
// is rebuilt from its initial rows (outside the timed calls) and the same
// rounds repeat, so every part of a run serves the same corpus sizes and
// the figures do not depend on how many rounds fit in the run.
class KnnChurnTiny final : public Workload {
 public:
  static constexpr std::size_t kRows = 4096;
  static constexpr std::size_t kShardCapacity = 1024;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kK = 10;
  static constexpr std::size_t kQueryBatches = 192;
  static constexpr std::size_t kRounds = 4;
  static constexpr std::size_t kRequestsPerRound = 48;
  static constexpr std::size_t kAppendPerRound = 192;
  static constexpr std::size_t kErasePerRound = 48;

  explicit KnnChurnTiny(std::uint64_t seed)
      : seed_(seed),
        rows_(jbinputs::generate(Shape::kTiny, seed, 0, kRows)),
        queries_(jbinputs::generate(Shape::kTiny, seed, kRows,
                                    kBatch * kQueryBatches)),
        appends_(jbinputs::generate(Shape::kTiny, seed, kRows + queries_.n,
                                    kAppendPerRound * kRounds)),
        matrix_(to_matrix(rows_)) {
    for (std::size_t b = 0; b < kQueryBatches; ++b) {
      fasted::service::KnnQuery q;
      q.points = MatrixF32(kBatch, queries_.d);
      for (std::size_t i = 0; i < kBatch; ++i) {
        std::memcpy(q.points.row(i), queries_.row(b * kBatch + i),
                    queries_.d * sizeof(float));
      }
      q.k = kK;
      requests_.push_back(std::move(q));
    }
  }

  double setup() override {
    const std::uint64_t t0 = now_ns();
    rebuild();
    // The first calibration: the radius the first kNN round starts from.
    corpus_->eps_for_selectivity(fasted::service::KnnOptions{}.initial_growth *
                                 kK);
    return seconds_since(t0);
  }

  void verify(Result& r) override {
    ref_rows_ = jbref::prepare(rows_.values.data(), kRows, rows_.d);
    ref_appends_ =
        jbref::prepare(appends_.values.data(), appends_.n, appends_.d);
    ref_queries_ =
        jbref::prepare(queries_.values.data(), queries_.n, queries_.d);
    check_against_reference(0, service_->knn(requests_[0]), r);
    note("knn_churn_tiny: n=" + std::to_string(kRows) + " shard_capacity=" +
         std::to_string(kShardCapacity) + ", " + std::to_string(kRounds) +
         " rounds of " + std::to_string(kAppendPerRound) + " appended + " +
         std::to_string(kErasePerRound) + " erased + " +
         std::to_string(kRequestsPerRound) + " requests of " +
         std::to_string(kBatch) + " rows, k=" + std::to_string(kK));
  }

  void loop(double seconds, Tracer& tracer, LoopStats& s,
            Result& r) override {
    const std::uint64_t start = now_ns();
    // Whole corpus cycles only: every run serves the same mix of sizes.
    while (seconds_since(start) < seconds || round_ != kRounds) {
      if (round_ == kRounds) rebuild();
      const std::uint64_t tiles0 = tiles_of(service_->stats().domain_loads);
      mutate(tracer, s, r);
      for (std::size_t k = 0; k < kRequestsPerRound; ++k) {
        const std::size_t b = (round_ * kRequestsPerRound + k) % kQueryBatches;
        const std::uint64_t req = tracer.next_request();
        Tracer::Span span(tracer, "knn", req);
        const std::size_t alive = corpus_->alive();
        const std::uint64_t t0 = now_ns();
        const fasted::service::KnnBatchResult res =
            service_->knn(requests_[b]);
        const double dt = seconds_since(t0);
        ++s.attempted;
        s.latency_ms.push_back(dt * 1e3);
        s.count(kBatch, static_cast<double>(kBatch * alive), dt);
        rounds_ += static_cast<std::size_t>(res.rounds);
        ++requests_served_;
        check_shape(res, r);
        if (k == 0 && round_ == kRounds - 1) check_against_reference(b, res, r);
      }
      s.tiles += tiles_of(service_->stats().domain_loads) - tiles0;
      if (++round_ == kRounds) s.close_window();
    }
    note("knn_churn_tiny: " +
         fmt(static_cast<double>(rounds_) /
             static_cast<double>(std::max<std::size_t>(1, requests_served_))) +
         " adaptive-radius rounds per request");
  }

  LedgerInputs ledger_inputs() override {
    LedgerInputs in;
    in.shape = Shape::kTiny;
    in.seed = seed_;
    in.corpus = &rows_;
    in.queries = &queries_;
    in.held_out_first = kRows + queries_.n + appends_.n;
    in.eps = corpus_->eps_for_selectivity(kSelectivity);
    in.service = service_;
    return in;
  }

 private:
  // The corpus and service at their initial rows; the same erase sequence.
  void rebuild() {
    fasted::service::ShardedCorpusOptions opt;
    opt.shard_capacity = kShardCapacity;
    corpus_ = std::make_shared<ShardedCorpus>(matrix_, opt);
    service_ = std::make_shared<JoinService>(corpus_);
    alive_ids_.resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      alive_ids_[i] = static_cast<std::uint32_t>(i);
    }
    dead_.assign(kRows, false);
    erase_rng_ = jbinputs::Rng(seed_ ^ 0x5eedull);
    round_ = 0;
  }

  void mutate(Tracer& tracer, LoopStats& s, Result& r) {
    const std::uint64_t req = tracer.next_request();
    const std::size_t appended = round_ * kAppendPerRound;
    MatrixF32 add(kAppendPerRound, appends_.d);
    for (std::size_t i = 0; i < kAppendPerRound; ++i) {
      std::memcpy(add.row(i), appends_.row(appended + i),
                  appends_.d * sizeof(float));
    }
    std::vector<std::uint32_t> victims;
    for (std::size_t e = 0; e < kErasePerRound; ++e) {
      const std::size_t at = erase_rng_.below(alive_ids_.size());
      victims.push_back(alive_ids_[at]);
      alive_ids_[at] = alive_ids_.back();
      alive_ids_.pop_back();
    }
    double ingest_s = 0;
    {
      Tracer::Span span(tracer, "append", req);
      const std::uint64_t t0 = now_ns();
      corpus_->append(add);
      ingest_s += seconds_since(t0);
    }
    for (std::size_t i = 0; i < kAppendPerRound; ++i) {
      alive_ids_.push_back(static_cast<std::uint32_t>(dead_.size()));
      dead_.push_back(false);
    }
    std::size_t newly = 0;
    {
      Tracer::Span span(tracer, "erase", req);
      const std::uint64_t t0 = now_ns();
      newly = corpus_->erase(victims);
      ingest_s += seconds_since(t0);
    }
    for (const std::uint32_t v : victims) dead_[v] = true;
    s.ingest_per_s.push_back(
        static_cast<double>(kAppendPerRound + kErasePerRound) / ingest_s);
    const std::size_t appended_now = appended + kAppendPerRound;
    const std::size_t erased_now = (round_ + 1) * kErasePerRound;
    r.check(newly == kErasePerRound, "erase tombstones every live id given");
    r.check(corpus_->size() == kRows + appended_now,
            "size() equals initial + appended rows");
    r.check(corpus_->alive() == kRows + appended_now - erased_now,
            "alive() equals initial + appended - erased rows");
  }

  void check_shape(const fasted::service::KnnBatchResult& res, Result& r) {
    bool shape = res.k == kK && res.ids.size() == kBatch * kK &&
                 res.distances.size() == kBatch * kK;
    bool live = true;
    bool ascending = true;
    for (std::size_t q = 0; shape && q < kBatch; ++q) {
      for (std::size_t k = 0; k < kK; ++k) {
        const std::uint32_t id = res.id(q, k);
        live = live && id < dead_.size() && !dead_[id];
        if (k > 0) {
          ascending = ascending && res.distance(q, k - 1) <= res.distance(q, k);
        }
      }
    }
    r.check(shape, "kNN answer has k ids and distances per query row");
    r.check(live, "kNN never returns a tombstoned or unknown id");
    r.check(ascending, "kNN distances ascend");
  }

  // Brute force over the alive rows by reference distance, ties by id.
  void check_against_reference(std::size_t batch,
                               const fasted::service::KnnBatchResult& res,
                               Result& r) {
    std::size_t mismatched = 0;
    std::vector<fasted::QueryMatch> all;
    for (std::size_t q = 0; q < kBatch; ++q) {
      const std::size_t qi = batch * kBatch + q;
      all.clear();
      for (std::size_t id = 0; id < dead_.size(); ++id) {
        if (dead_[id]) continue;
        const float d2 =
            id < kRows ? jbref::pair_dist2(ref_queries_, qi, ref_rows_, id)
                       : jbref::pair_dist2(ref_queries_, qi, ref_appends_,
                                           id - kRows);
        all.push_back({static_cast<std::uint32_t>(id), d2});
      }
      std::partial_sort(all.begin(), all.begin() + kK, all.end(),
                        [](const fasted::QueryMatch& a,
                           const fasted::QueryMatch& b) {
                          return a.dist2 != b.dist2 ? a.dist2 < b.dist2
                                                    : a.id < b.id;
                        });
      for (std::size_t k = 0; k < kK; ++k) {
        const float dist = std::sqrt(std::max(0.0f, all[k].dist2));
        if (res.id(q, k) != all[k].id || !same_bits(res.distance(q, k), dist)) {
          ++mismatched;
        }
      }
    }
    r.check(mismatched == 0,
            "kNN batch " + std::to_string(batch) + ": " +
                std::to_string(mismatched) +
                " of its ids/distances differ from the reference brute force");
  }

  std::uint64_t seed_;
  Rows rows_;
  Rows queries_;
  Rows appends_;
  MatrixF32 matrix_;
  jbinputs::Rng erase_rng_{0};
  std::vector<fasted::service::KnnQuery> requests_;
  std::shared_ptr<ShardedCorpus> corpus_;
  std::shared_ptr<JoinService> service_;
  jbref::Prepared ref_rows_;
  jbref::Prepared ref_appends_;
  jbref::Prepared ref_queries_;
  std::vector<std::uint32_t> alive_ids_;
  std::vector<bool> dead_;
  std::size_t round_ = 0;
  std::size_t rounds_ = 0;
  std::size_t requests_served_ = 0;
};

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "selfjoin_gist") return std::make_unique<SelfJoinGist>(seed);
  if (name == "point_sift") return std::make_unique<PointSift>(seed);
  if (name == "gateway_sift") return std::make_unique<GatewaySift>(seed);
  if (name == "knn_churn_tiny") return std::make_unique<KnnChurnTiny>(seed);
  return nullptr;
}

void add_end_to_end(Result& r, double setup_s, const LoopStats& s) {
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("join_evals_per_s", median(s.evals_per_s), "evals/s");
  r.add("queries_per_s", s.queries_per_s(), "queries/s");
  r.add("latency_p50_ms", quantile(s.latency_ms, 0.50), "ms");
  r.add("latency_p99_ms", quantile(s.latency_ms, 0.99), "ms");
  r.add("ingest_rows_per_s", median(s.ingest_per_s), "rows/s");
}

}  // namespace

bool run_workload(const RunArgs& args, Result& r) {
  const std::unique_ptr<Workload> w = make(args.workload, args.seed);
  if (w == nullptr) return false;
  const double setup_s = w->setup();
  w->verify(r);
  Tracer tracer;
  if (!args.trace) {
    LoopStats s;
    w->loop(args.seconds, tracer, s, r);
    r.attempted = s.attempted;
    r.failed = s.failed;
    note(args.workload + ": " + std::to_string(s.latency_ms.size()) +
         " requests in " + std::to_string(s.rows_per_s.size()) +
         " windows, latency quartiles " +
         fmt(quantile(s.latency_ms, 0.25)) + " / " +
         fmt(quantile(s.latency_ms, 0.5)) + " / " +
         fmt(quantile(s.latency_ms, 0.75)) + " ms");
    add_end_to_end(r, setup_s, s);
    return true;
  }
  // Traced run: the same loop untraced and then traced for a third of the
  // run each (the rate difference is the tracing overhead), then the
  // per-layer ledger with spans on.
  LoopStats plain;
  w->loop(args.seconds / 3, tracer, plain, r);
  tracer.enable(true);
  LoopStats traced;
  w->loop(args.seconds / 3, tracer, traced, r);
  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;
  LedgerInputs in = w->ledger_inputs();
  const double requests = static_cast<double>(plain.latency_ms.size() +
                                              traced.latency_ms.size());
  in.tiles_per_request =
      requests > 0 ? static_cast<double>(plain.tiles + traced.tiles) / requests
                   : 0.0;
  in.trace_overhead_pct =
      plain.queries_per_s() > 0
          ? 100.0 * (plain.queries_per_s() - traced.queries_per_s()) /
                plain.queries_per_s()
          : 0.0;
  in.fma_1t_gflops = args.fma_1t_gflops;
  run_ledger(in, tracer, r);
  if (!args.trace_path.empty()) {
    r.check(tracer.write_chrome_json(args.trace_path),
            "trace written to " + args.trace_path);
    note("trace: " + std::to_string(tracer.size()) + " spans in " +
         args.trace_path);
  }
  return true;
}

}  // namespace jb
