// Hand-made cases for the benchmark's scalar reference: FP16 rounding edges
// and sums where round-toward-zero and round-to-nearest differ.  Exits 0
// when every case holds; prints each failure otherwise.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "inputs.hpp"
#include "reference.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

void fp16_edges() {
  using jbref::fp16_bits;
  EXPECT(fp16_bits(1.0f) == 0x3c00);
  EXPECT(fp16_bits(-1.5f) == 0xbe00);
  EXPECT(fp16_bits(-0.0f) == 0x8000);
  EXPECT(fp16_bits(65504.0f) == 0x7bff);          // largest finite
  EXPECT(fp16_bits(65519.996f) == 0x7bff);        // just below the tie
  EXPECT(fp16_bits(65520.0f) == 0x7c00);          // tie rounds to inf
  EXPECT(fp16_bits(1e6f) == 0x7c00);
  EXPECT(fp16_bits(std::numeric_limits<float>::infinity()) == 0x7c00);
  EXPECT((fp16_bits(std::numeric_limits<float>::quiet_NaN()) & 0x7fff) > 0x7c00);
  // Ties to even in the normal range: 1 + 2^-11 lies halfway between 1 and
  // 1 + 2^-10; 1 + 3 * 2^-11 halfway between 1 + 2^-10 and 1 + 2^-9.
  EXPECT(fp16_bits(1.0f + 0x1p-11f) == 0x3c00);
  EXPECT(fp16_bits(1.0f + 0x3p-11f) == 0x3c02);
  EXPECT(fp16_bits(1.0f + 0x1p-11f + 0x1p-20f) == 0x3c01);
  // Carry into the next binade: 2 - 2^-12 is halfway to 2.
  EXPECT(fp16_bits(2.0f - 0x1p-12f) == 0x4000);
  // Subnormals: steps of 2^-24, ties to even, and the carry into 2^-14.
  EXPECT(fp16_bits(0x1p-24f) == 0x0001);
  EXPECT(fp16_bits(0x1p-25f) == 0x0000);
  EXPECT(fp16_bits(0x1p-25f + 0x1p-40f) == 0x0001);
  EXPECT(fp16_bits(0x3p-25f) == 0x0002);
  EXPECT(fp16_bits(0x1p-14f) == 0x0400);
  EXPECT(fp16_bits(0x1p-14f - 0x1p-25f) == 0x0400);
  EXPECT(fp16_bits(0x1p-14f - 0x1p-24f) == 0x03ff);
  EXPECT(fp16_bits(0x1p-14f - 0x3p-25f) == 0x03fe);  // 1022.5 steps: even
  EXPECT(fp16_bits(1e-10f) == 0x0000);
  // Every finite FP16 value decodes and re-encodes to itself.
  int roundtrip_bad = 0;
  for (std::uint32_t h = 0; h < 0x10000; ++h) {
    if ((h & 0x7c00) == 0x7c00) continue;
    if (jbref::fp16_bits(jbref::fp16_value(static_cast<std::uint16_t>(h))) != h) {
      ++roundtrip_bad;
    }
  }
  EXPECT(roundtrip_bad == 0);
  EXPECT(jbref::fp16_value(0x7bff) == 65504.0f);
  EXPECT(jbref::fp16_value(0x0001) == 0x1p-24f);
#if defined(__FLT16_MAX__)
  // The compiler's own conversion as a second opinion on random floats.
  jbinputs::Rng rng(7);
  int mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t bits = static_cast<std::uint32_t>(rng.next());
    const float x = std::bit_cast<float>(bits);
    if (std::isnan(x)) continue;
    const _Float16 h = static_cast<_Float16>(x);
    if (std::bit_cast<std::uint16_t>(h) != jbref::fp16_bits(x)) ++mismatches;
  }
  EXPECT(mismatches == 0);
#endif
}

void rz_sums() {
  using jbref::add_rz;
  // 1 + 1.5 * 2^-24: nearest rounds up to 1 + 2^-23, toward zero stays 1.
  EXPECT(same_bits(add_rz(1.0f, 0x1.8p-24f), 1.0f));
  EXPECT(same_bits(1.0f + 0x1.8p-24f, 1.0f + 0x1p-23f));
  EXPECT(same_bits(add_rz(-1.0f, -0x1.8p-24f), -1.0f));
  // An exact tie: nearest goes to the even neighbour, toward zero does not.
  EXPECT(same_bits(add_rz(1.0f + 0x1p-23f, 0x1p-24f), 1.0f + 0x1p-23f));
  EXPECT(same_bits((1.0f + 0x1p-23f) + 0x1p-24f, 1.0f + 0x1p-22f));
  // Exponents so far apart that the double sum rounds: 1 - 2^-60 must
  // still truncate to the float just below 1.
  EXPECT(same_bits(add_rz(1.0f, -0x1p-60f), 0x1.fffffep-1f));
  EXPECT(same_bits(add_rz(3.0f, 0x1p-70f), 3.0f));
  EXPECT(same_bits(add_rz(-3.0f, 0x1p-70f), -0x1.7ffffep+1f));
  // Representable sums are exact; cancellation gives +0.
  EXPECT(same_bits(add_rz(0.5f, 0.25f), 0.75f));
  EXPECT(same_bits(add_rz(1.0f, -1.0f), 0.0f));
  // Overflow truncates to the largest finite float.
  const float big = std::numeric_limits<float>::max();
  EXPECT(same_bits(add_rz(big, big), big));
  EXPECT(same_bits(add_rz(-big, -big), -big));
}

void chains() {
  // Three products of 1.5 * 2^-24 after a 1: round-to-nearest climbs to
  // 1 + 3 * 2^-23, round-toward-zero never leaves 1.  All inputs are
  // FP16-exact, so the products are exact.
  const float a[4] = {1.0f, 0x1.8p-12f, 0x1.8p-12f, 0x1.8p-12f};
  const float b[4] = {1.0f, 0x1p-12f, 0x1p-12f, 0x1p-12f};
  float rn = 0.0f;
  for (int k = 0; k < 4; ++k) rn += a[k] * b[k];
  EXPECT(same_bits(rn, 1.0f + 0x3p-23f));
  EXPECT(same_bits(jbref::dot_rz(a, b, 4), 1.0f));
  // Expanded form on exact values: |(1,2) - (3,4)|^2 = 5 + 25 - 2 * 11.
  const float p[2] = {1.0f, 2.0f};
  const float q[2] = {3.0f, 4.0f};
  EXPECT(same_bits(jbref::dist2(jbref::dot_rz(p, q, 2), jbref::dot_rz(p, p, 2),
                                jbref::dot_rz(q, q, 2)),
                   8.0f));
  // prepare() rounds inputs to FP16 first: 0.1f becomes 0x1.998p-4.
  const float rows[4] = {0.1f, 0.0f, 0.0f, 0.0f};
  const jbref::Prepared prep = jbref::prepare(rows, 2, 2);
  EXPECT(same_bits(prep.row(0)[0], 0x1.998p-4f));
  EXPECT(same_bits(prep.norms[0], 0x1.998p-4f * 0x1.998p-4f));
  EXPECT(same_bits(jbref::pair_dist2(prep, 0, prep, 1), prep.norms[0]));
  EXPECT(same_bits(jbref::pair_dist2(prep, 1, prep, 1), 0.0f));
}

void bound() {
  // Unit-norm rows: the tolerance is small but positive and grows with d.
  const float rows[4] = {0.6f, 0.8f, 0.8f, 0.6f};
  const jbref::BoundInputs in = jbref::bound_inputs(rows, 2, 2);
  EXPECT(in.max_quant_err > 0 && in.max_quant_err < 1e-3);
  EXPECT(std::fabs(in.max_norm - 1.0) < 1e-3);
  const double delta = jbref::bound_delta(in, 0.5f);
  EXPECT(delta > 0 && delta < 1e-2);
  jbref::BoundInputs wide = in;
  wide.d = 960;
  EXPECT(jbref::bound_delta(wide, 0.5f) > delta);
}

void generator() {
  // A row depends only on (seed, shape, index): slices agree with the whole.
  const jbinputs::Rows all = jbinputs::generate(jbinputs::Shape::kSift, 3, 0, 8);
  const jbinputs::Rows tail = jbinputs::generate(jbinputs::Shape::kSift, 3, 5, 3);
  bool same = true;
  for (std::size_t k = 0; k < 3 * all.d; ++k) {
    same = same && all.values[5 * all.d + k] == tail.values[k];
  }
  EXPECT(same);
  bool integral = true;
  for (const float v : all.values) {
    integral = integral && v >= 0 && v <= 255 && v == std::round(v);
  }
  EXPECT(integral);
}

}  // namespace

int main() {
  fp16_edges();
  rz_sums();
  chains();
  bound();
  generator();
  if (failures == 0) std::printf("reference_test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
