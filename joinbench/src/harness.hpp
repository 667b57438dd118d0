// Measurement plumbing shared by the workloads: clocks, sample summaries,
// the host FMA reference loop, the benchmark's own span tracer, and the
// result record printed as the last line of standard output.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jb {

std::uint64_t now_ns();
inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb();

// GFLOP/s (2 flops per FMA) of a register-resident FMA loop on `threads`
// threads, each timed for about `seconds`.  The widest vector FMA the CPU
// supports is used; the loop touches no memory.
double fma_gflops(unsigned threads, double seconds);

// Spans recorded by the benchmark around its calls into the library.  One
// request id ties together every span a request causes; `parent` is the
// enclosing span's id (0 for roots).  Recording is off unless enabled, and
// spans stay in memory until write_chrome_json().
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  std::uint64_t next_request() { return ++requests_; }  // thread-safe

  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t request,
         std::uint64_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    std::uint64_t t0_ = 0;
  };

  std::size_t size() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t t0, t1, request, parent, id;
    unsigned tid;
  };
  bool on_ = false;
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 0;
  std::vector<Record> records_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The run's outcome.  `correct` is false as soon as any check fails; each
// failure is reported on stderr with what was expected.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what);
};

// Informational "# ..." lines (host reference, inputs, pair totals) come
// before the result; the result is the last line of standard output.
void note(const std::string& line);
void print_result(const Result& r);

}  // namespace jb
