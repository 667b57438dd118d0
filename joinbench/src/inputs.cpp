#include "inputs.hpp"

#include <algorithm>
#include <cmath>

namespace jbinputs {

namespace {

struct Spec {
  std::size_t d;
  std::size_t clusters;
  double cluster_std;
  double noise_fraction;
};

Spec spec_of(Shape shape) {
  switch (shape) {
    case Shape::kSift:
      return {128, 256, 0.18, 0.02};
    case Shape::kTiny:
      return {384, 128, 0.08, 0.01};
    case Shape::kGist:
      return {960, 192, 0.10, 0.04};
  }
  return {0, 0, 0, 0};
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0x9e3779b97f4a7c15ull));
  r.next();
  return r.next();
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::normal() {
  // Box-Muller; one variate per call keeps every row's stream simple.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

Rows generate(Shape shape, std::uint64_t seed, std::size_t first,
              std::size_t n) {
  const Spec s = spec_of(shape);
  const std::uint64_t set_seed = mix(seed, static_cast<std::uint64_t>(shape) + 1);
  Rng centre_rng(set_seed);
  std::vector<double> centres(s.clusters * s.d);
  for (double& c : centres) c = centre_rng.uniform();

  Rows out;
  out.n = n;
  out.d = s.d;
  out.values.resize(n * s.d);
  std::vector<double> v(s.d);
  for (std::size_t r = 0; r < n; ++r) {
    Rng rng(mix(set_seed, first + r + 1));
    if (rng.uniform() < s.noise_fraction) {
      for (double& x : v) x = rng.uniform();
    } else {
      const double* c = centres.data() + rng.below(s.clusters) * s.d;
      for (std::size_t k = 0; k < s.d; ++k) {
        v[k] = std::clamp(c[k] + s.cluster_std * rng.normal(), 0.0, 1.0);
      }
    }
    float* row = out.values.data() + r * s.d;
    if (shape == Shape::kSift) {
      // Histogram-like: squashed toward small bins, integer-valued.
      for (std::size_t k = 0; k < s.d; ++k) {
        row[k] = static_cast<float>(std::round(255.0 * v[k] * v[k]));
      }
    } else {
      double norm2 = 0;
      for (const double x : v) norm2 += x * x;
      const double inv = norm2 > 0 ? 1.0 / std::sqrt(norm2) : 0.0;
      for (std::size_t k = 0; k < s.d; ++k) {
        row[k] = static_cast<float>(v[k] * inv);
      }
    }
  }
  return out;
}

}  // namespace jbinputs
