// The benchmark's own scalar reference of the FaSTED distance, written apart
// from fasted_lib so that the library can be checked against it:
//
//   * inputs rounded to FP16, round-to-nearest-even;
//   * products of FP16 values, exact in FP32;
//   * FP32 accumulation rounded toward zero, in ascending dimension order;
//   * squared norms by the same chain;
//   * the paper's expanded form dist^2 = s_i + s_j - 2 (p_i . p_j), with
//     s_i + s_j rounded to nearest and the combine done as one fused
//     multiply-add (the tensor-core epilogue).
//
// Nothing here depends on the library; tests/reference_test.cpp checks the
// rounding edges by hand.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jbref {

// FP32 -> FP16 bits, round to nearest, ties to even; overflow gives +-inf.
std::uint16_t fp16_bits(float x);
// FP16 bits -> the exact FP32 value.
float fp16_value(std::uint16_t h);
// x rounded through FP16.
inline float fp16_round(float x) { return fp16_value(fp16_bits(x)); }

// acc + p rounded toward zero to FP32, exactly (the double sum alone can be
// inexact when the exponents are far apart; the TwoSum error term decides).
float add_rz(float acc, float p);

// The RZ dot-product chain over `d` FP16-exact values, k = 0 .. d-1.
float dot_rz(const float* a, const float* b, std::size_t d);

// The expanded-form squared distance from a dot product and two norms.
float dist2(float dot, float norm_a, float norm_b);

// Rows rounded to FP16 (dense, row-major) with their RZ squared norms.
struct Prepared {
  std::size_t n = 0;
  std::size_t d = 0;
  std::vector<float> values;
  std::vector<float> norms;

  const float* row(std::size_t i) const { return values.data() + i * d; }
};

// Prepares rows `first .. first + n - 1` of a dense row-major n x d array.
Prepared prepare(const float* rows, std::size_t n, std::size_t d);

// Pipeline squared distance between row i of `a` and row j of `b`.
float pair_dist2(const Prepared& a, std::size_t i, const Prepared& b,
                 std::size_t j);

// FP64 squared Euclidean distance of the unrounded rows.
double dist2_f64(const float* a, const float* b, std::size_t d);

// The tolerance delta of the FP64 bound check: any pair whose FP64 distance
// is below eps (1 - delta) must be reported and every reported pair must
// lie within eps (1 + delta).  Derived from
//   q = the largest FP16 quantisation error ||round(x) - x|| of any row
//       (the distance of the rounded rows differs by at most 2q), and
//   e = a bound on |pipeline dist^2 - exact dist^2 of the rounded rows|:
//       the RZ chains err by at most gamma_d = d u / (1 - d u), u = 2^-23,
//       relative to sums of non-negative terms bounded by (2 m)^2 where m
//       is the largest rounded-row norm, and the epilogue adds two
//       round-to-nearest steps.
struct BoundInputs {
  double max_quant_err = 0;  // q
  double max_norm = 0;       // m
  std::size_t d = 0;
};
BoundInputs bound_inputs(const float* rows, std::size_t n, std::size_t d);
double bound_delta(const BoundInputs& in, float eps);

}  // namespace jbref
