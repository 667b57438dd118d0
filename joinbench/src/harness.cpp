#include "harness.hpp"

#include <immintrin.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

namespace jb {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Eight independent FMA chains hide the FMA latency on two ports.
constexpr int kChains = 8;
constexpr long kInner = 4096;

__attribute__((target("avx512f"))) double fma_loop_avx512(double seconds) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(1.0f + 0.001f * c);
  const __m512 m = _mm512_set1_ps(0.999999f);
  const __m512 a = _mm512_set1_ps(1e-7f);
  std::uint64_t fmas = 0;
  const std::uint64_t t0 = now_ns();
  double elapsed = 0;
  do {
    for (long i = 0; i < kInner; ++i) {
      for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], m, a);
    }
    fmas += static_cast<std::uint64_t>(kInner) * kChains * 16;
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  float sink = 0;
  for (int c = 0; c < kChains; ++c) sink += _mm512_reduce_add_ps(acc[c]);
  if (sink == 42.0f) std::fputc(' ', stderr);  // keeps the loop alive
  return 2.0 * static_cast<double>(fmas) / elapsed * 1e-9;
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(double seconds) {
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(1.0f + 0.001f * c);
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 a = _mm256_set1_ps(1e-7f);
  std::uint64_t fmas = 0;
  const std::uint64_t t0 = now_ns();
  double elapsed = 0;
  do {
    for (long i = 0; i < kInner; ++i) {
      for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], m, a);
    }
    fmas += static_cast<std::uint64_t>(kInner) * kChains * 8;
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  alignas(32) float lanes[8];
  float sink = 0;
  for (int c = 0; c < kChains; ++c) {
    _mm256_store_ps(lanes, acc[c]);
    for (const float l : lanes) sink += l;
  }
  if (sink == 42.0f) std::fputc(' ', stderr);
  return 2.0 * static_cast<double>(fmas) / elapsed * 1e-9;
}

double fma_loop_scalar(double seconds) {
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 1.0f + 0.001f * c;
  std::uint64_t fmas = 0;
  const std::uint64_t t0 = now_ns();
  double elapsed = 0;
  do {
    for (long i = 0; i < kInner; ++i) {
      for (int c = 0; c < kChains; ++c) acc[c] = std::fma(acc[c], 0.999999f, 1e-7f);
    }
    fmas += static_cast<std::uint64_t>(kInner) * kChains;
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  float sink = 0;
  for (const float v : acc) sink += v;
  if (sink == 42.0f) std::fputc(' ', stderr);
  return 2.0 * static_cast<double>(fmas) / elapsed * 1e-9;
}

double fma_loop(double seconds) {
  if (__builtin_cpu_supports("avx512f")) return fma_loop_avx512(seconds);
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return fma_loop_avx2(seconds);
  }
  return fma_loop_scalar(seconds);
}

thread_local unsigned t_tid = 0;
std::atomic<unsigned> g_tids{0};

unsigned tid() {
  if (t_tid == 0) t_tid = ++g_tids;
  return t_tid;
}

}  // namespace

double fma_gflops(unsigned threads, double seconds) {
  if (threads <= 1) return fma_loop(seconds);
  std::vector<double> rates(threads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&rates, t, seconds] { rates[t] = fma_loop(seconds); });
  }
  for (std::thread& th : pool) th.join();
  double sum = 0;
  for (const double r : rates) sum += r;
  return sum;
}

Tracer::Span::Span(Tracer& t, const char* name, std::uint64_t request,
                   std::uint64_t parent)
    : tracer_(t), name_(name), request_(request), parent_(parent) {
  if (!tracer_.on_) return;
  {
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    id_ = ++tracer_.next_id_;
  }
  t0_ = now_ns();
}

Tracer::Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t t1 = now_ns();
  std::lock_guard<std::mutex> lock(tracer_.mutex_);
  tracer_.records_.push_back({name_, t0_, t1, request_, parent_, id_, tid()});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) return false;
  std::uint64_t first = records_.empty() ? 0 : records_.front().t0;
  for (const Record& r : records_) first = std::min(first, r.t0);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << "{\"name\":\"" << r.name << "\",\"cat\":\"joinbench\",\"ph\":\"X\""
       << ",\"ts\":" << static_cast<double>(r.t0 - first) * 1e-3
       << ",\"dur\":" << static_cast<double>(r.t1 - r.t0) * 1e-3
       << ",\"pid\":1,\"tid\":" << r.tid << ",\"args\":{\"request\":"
       << r.request << ",\"span\":" << r.id << ",\"parent\":" << r.parent
       << "}}" << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "joinbench: CHECK FAILED: " << what << "\n";
}

void note(const std::string& line) { std::cout << "# " << line << "\n"; }

void print_result(const Result& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace jb
