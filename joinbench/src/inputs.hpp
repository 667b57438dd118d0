// The benchmark's seeded input generator.  Rows are clustered Gaussian
// mixtures shaped like the paper's datasets:
//
//   Sift  d = 128, non-negative integers in [0, 255], mass near zero
//   Tiny  d = 384, unit-norm rows
//   Gist  d = 960, unit-norm rows
//
// The seed draws the cluster centres; row i draws from its own stream, so a
// row depends only on (seed, shape, i).  Corpus, queries and appended rows
// are disjoint index ranges of ONE generated set: a query from a set with
// other centres would find no neighbours at the corpus's radius.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jbinputs {

enum class Shape { kSift, kTiny, kGist };

// Dense row-major n x d rows.
struct Rows {
  std::size_t n = 0;
  std::size_t d = 0;
  std::vector<float> values;
  const float* row(std::size_t i) const { return values.data() + i * d; }
};

// Rows [first, first + n) of the set drawn for `seed`.
Rows generate(Shape shape, std::uint64_t seed, std::size_t first,
              std::size_t n);

// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                 // [0, 1)
  std::size_t below(std::size_t n);  // [0, n)
  double normal();

 private:
  std::uint64_t state_;
};

}  // namespace jbinputs
