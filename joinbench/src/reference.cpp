#include "reference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace jbref {

std::uint16_t fp16_bits(float x) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(x);
  const std::uint16_t sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t exp = (f >> 23) & 0xffu;
  std::uint32_t man = f & 0x7fffffu;
  if (exp == 0xffu) {  // inf / nan
    return static_cast<std::uint16_t>(sign | 0x7c00u | (man != 0 ? 0x200u : 0));
  }
  // Work on the value as an integer multiple of 2^-24 (the FP16 subnormal
  // step) carried with 32 extra fraction bits so every tie is visible.
  const int e = static_cast<int>(exp) - 127;  // unbiased
  if (exp == 0) return sign;                   // FP32 subnormals -> +-0
  man |= 0x800000u;                            // 24-bit significand
  // value = man * 2^(e - 23); in units of 2^-24: man * 2^(e + 1).
  const int shift = e + 1;                     // left shift of man
  if (shift >= 17) return static_cast<std::uint16_t>(sign | 0x7c00u);
  // Normal FP16 results keep 11 significant bits; below 2^-14 the grid is
  // fixed at 2^-24.  `keep` = number of low bits of the 24-bit significand
  // that fall below the FP16 grid.
  int drop;
  if (e >= -14) {
    drop = 13;                                 // 24 -> 11 bits
  } else {
    drop = 13 + (-14 - e);                     // subnormal: fewer bits kept
  }
  if (drop > 25) return sign;                  // below half the smallest step
  const std::uint32_t kept = man >> drop;
  const std::uint32_t rest = man & ((1u << drop) - 1u);
  const std::uint32_t half = 1u << (drop - 1);
  std::uint32_t r = kept;
  if (rest > half || (rest == half && (kept & 1u) != 0)) ++r;
  std::uint32_t bits;
  if (e >= -14) {
    // r is an 11- or 12-bit significand with the implicit one.
    int he = e + 15;
    if (r == 0x800u) {  // rounding carried into the next binade
      r >>= 1;
      ++he;
    }
    if (he >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);
    bits = (static_cast<std::uint32_t>(he) << 10) | (r & 0x3ffu);
  } else {
    // Subnormal: r counts 2^-24 steps; a carry to 0x400 is exactly the
    // smallest normal, whose encoding is the same integer.
    bits = r;
  }
  return static_cast<std::uint16_t>(sign | bits);
}

float fp16_value(std::uint16_t h) {
  const bool neg = (h & 0x8000u) != 0;
  const int exp = (h >> 10) & 0x1f;
  const int man = h & 0x3ff;
  float v;
  if (exp == 0) {
    v = std::ldexp(static_cast<float>(man), -24);
  } else if (exp == 31) {
    v = man != 0 ? std::numeric_limits<float>::quiet_NaN()
                 : std::numeric_limits<float>::infinity();
  } else {
    v = std::ldexp(static_cast<float>(man | 0x400), exp - 25);
  }
  return neg ? -v : v;
}

float add_rz(float acc, float p) {
  const double a = acc;
  const double b = p;
  const double s = a + b;
  // TwoSum: a + b == s + err exactly.
  const double bv = s - a;
  const double err = (a - (s - bv)) + (b - bv);
  float f = static_cast<float>(s);  // round to nearest
  if (std::isinf(f)) {
    return std::copysign(std::numeric_limits<float>::max(), f);
  }
  // Exact comparison of f against s + err: f - s is exact (f and s are
  // within a factor of two), so f > s + err  <=>  f - s > err.
  const double over = static_cast<double>(f) - s;
  const bool magnitude_too_big =
      (s > 0 || (s == 0 && err > 0)) ? over > err : over < err;
  if (magnitude_too_big && f != 0.0f) f = std::nextafter(f, 0.0f);
  return f;
}

float dot_rz(const float* a, const float* b, std::size_t d) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < d; ++k) acc = add_rz(acc, a[k] * b[k]);
  return acc;
}

float dist2(float dot, float norm_a, float norm_b) {
  return std::fma(-2.0f, dot, norm_a + norm_b);
}

Prepared prepare(const float* rows, std::size_t n, std::size_t d) {
  Prepared p;
  p.n = n;
  p.d = d;
  p.values.resize(n * d);
  p.norms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    float* out = p.values.data() + i * d;
    for (std::size_t k = 0; k < d; ++k) out[k] = fp16_round(rows[i * d + k]);
    p.norms[i] = dot_rz(out, out, d);
  }
  return p;
}

float pair_dist2(const Prepared& a, std::size_t i, const Prepared& b,
                 std::size_t j) {
  return dist2(dot_rz(a.row(i), b.row(j), a.d), a.norms[i], b.norms[j]);
}

double dist2_f64(const float* a, const float* b, std::size_t d) {
  double s = 0;
  for (std::size_t k = 0; k < d; ++k) {
    const double t = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    s += t * t;
  }
  return s;
}

BoundInputs bound_inputs(const float* rows, std::size_t n, std::size_t d) {
  BoundInputs out;
  out.d = d;
  for (std::size_t i = 0; i < n; ++i) {
    double q2 = 0;
    double m2 = 0;
    for (std::size_t k = 0; k < d; ++k) {
      const double x = rows[i * d + k];
      const double r = fp16_round(rows[i * d + k]);
      q2 += (r - x) * (r - x);
      m2 += r * r;
    }
    out.max_quant_err = std::max(out.max_quant_err, std::sqrt(q2));
    out.max_norm = std::max(out.max_norm, std::sqrt(m2));
  }
  return out;
}

double bound_delta(const BoundInputs& in, float eps) {
  const double u = std::ldexp(1.0, -23);
  const double du = static_cast<double>(in.d) * u;
  const double gamma = du / (1.0 - du);
  // Norm chains and the dot chain each err by gamma times their (non-
  // negative) term sums, all <= (2m)^2 together; the two epilogue roundings
  // add at most 2^-23 of the same magnitude.
  const double scale = 4.0 * in.max_norm * in.max_norm;
  const double e = (gamma + std::ldexp(1.0, -22)) * scale;
  const double eps2 = static_cast<double>(static_cast<float>(eps) * eps);
  const double q2 = 2.0 * in.max_quant_err;
  const double lo = std::sqrt(std::max(0.0, eps2 - e)) - q2;
  const double hi = std::sqrt(eps2 + e) + q2;
  const double ed = eps;
  return std::max(1.0 - lo / ed, hi / ed - 1.0);
}

}  // namespace jbref
