// The float exp polynomial, the GELU built on it, and the 8-lane
// reduction order shared by the scalar and AVX2 backends of the
// vocab-wide softmax kernels (`SoftmaxNllForward`, `CategoricalWeights`)
// and of `Gelu`.
//
// Both backends must produce the same bits, so this header fixes every
// step that a lane performs. kernels_scalar.cc runs the scalar helpers
// below directly. kernels_avx2.cc runs the same sequence eight lanes at a
// time and uses these helpers for its ragged tails. Both TUs are compiled
// with -ffp-contract=off, so each multiply and add below stays a
// separately rounded IEEE op.
//
// Everything here has internal linkage (anonymous namespace) on purpose:
// kernels_avx2.cc is compiled with -mavx2, and an inline function with
// external linkage could have its AVX2-encoded copy picked by the linker
// for the scalar TU too, which would fault on a CPU without AVX2.

#ifndef FAIRGEN_NN_KERNELS_EXP_POLY_H_
#define FAIRGEN_NN_KERNELS_EXP_POLY_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/kernels.h"

namespace fairgen::nn::kernels::internal {
namespace {

// Vector width of the AVX2 backend. Row reductions keep one partial per
// lane: element j always goes to lane j % kLanes, in both backends.
constexpr size_t kLanes = 8;

// Inputs below this (≈ ln FLT_MIN) give exactly 0. Above it every result
// is a normal float, so the 2ⁿ scale below never leaves the exponent range.
constexpr float kExpLo = -87.33654f;
constexpr float kLog2e = 1.44269504088896341f;
// Adding 1.5·2²³ rounds |v| < 2²² to the nearest integer (ties to even)
// and leaves that integer in the low mantissa bits of the sum.
constexpr float kRoundMagic = 12582912.0f;
// Bits of kRoundMagic minus the float exponent bias (127): subtracting it
// from the sum's bits gives n + 127, the biased exponent of 2ⁿ.
constexpr uint32_t kScaleBiasBits = 0x4B400000u - 127u;
// ln 2 split so that n·kLn2Hi is exact for |n| < 2⁹.
constexpr float kLn2Hi = 0.693145751953125f;
constexpr float kLn2Lo = 1.428606765330187045e-06f;
// Minimax coefficients of (eʳ − 1 − r)/r² on |r| ≤ ln2/2, highest first.
constexpr float kExpP0 = 1.98527617612853646278381e-4f;
constexpr float kExpP1 = 1.39304355252534151077271e-3f;
constexpr float kExpP2 = 8.33336077630519866943359e-3f;
constexpr float kExpP3 = 4.16664853692054748535156e-2f;
constexpr float kExpP4 = 1.66666671633720397949219e-1f;
constexpr float kExpP5 = 0.5f;

// `_mm256_max_ps(a, b)` per lane: a > b ? a : b, so a NaN in either
// operand yields b. std::max(a, b) is (a < b) ? b : a, which differs on
// NaN and on signed zeros, so every max in these kernels goes through
// this.
inline float MaxLane(float a, float b) { return a > b ? a : b; }

// exp(x) for x ≤ 0 (the softmax domain after the row-max shift). Over
// every float in [−87, 0] it is within 0.952 ULP of the exact value, and
// never more than 1 ULP from glibc's expf. exp(0) is exactly 1.0f, inputs
// below kExpLo (−inf included) give exactly 0, and NaN gives NaN.
//
// x = n·ln2 + r with n = round(x·log2e), |r| ≤ ln2/2; eʳ is
// 1 + r + r²·P(r) by Horner steps; 2ⁿ is built from its exponent bits.
// The clamp is MaxLane(kExpLo, x), which keeps a NaN x (the second
// operand), and the exponent bits are unsigned integer arithmetic, so
// no input — NaN or ±inf — reaches a float-to-int conversion.
inline float ExpPoly(float x) {
  const float xc = MaxLane(kExpLo, x);
  const float t = xc * kLog2e + kRoundMagic;
  const float n = t - kRoundMagic;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  const float y = (p * (r * r) + r) + 1.0f;
  const uint32_t scale_bits = (std::bit_cast<uint32_t>(t) - kScaleBiasBits)
                              << 23;
  const float scale = std::bit_cast<float>(scale_bits);
  return x < kExpLo ? 0.0f : y * scale;
}

// 1 + tanh(z) of the GELU at x, z = √(2/π)·(x + 0.044715·x³). With
// e = e^(−2|z|), on ExpPoly's x ≤ 0 domain for every z, 1 + tanh(|z|) is
// 2 / (1 + e), and 1 + tanh(−|z|) = 1 − tanh(|z|) is e times that, which
// keeps the small values of the negative side free of cancellation. Both
// ends saturate cleanly: e = 0 gives 2 and 0, e = 1 (z = ±0) gives 1.
inline float GeluOnePlusTanh(float x) {
  const float z = kGeluSqrt2OverPi * (x + kGeluCubic * x * x * x);
  const float e = ExpPoly(-2.0f * std::fabs(z));
  const float s = 2.0f / (1.0f + e);
  return z < 0.0f ? e * s : s;
}

// The fixed fold of eight lane partials: lanes k and k+4 first (the two
// 128-bit halves), then k and k+2, then the last pair.
inline float FoldMax(const float m[kLanes]) {
  return MaxLane(MaxLane(MaxLane(m[0], m[4]), MaxLane(m[2], m[6])),
                 MaxLane(MaxLane(m[1], m[5]), MaxLane(m[3], m[7])));
}

inline double FoldSum(const double s[kLanes]) {
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

}  // namespace
}  // namespace fairgen::nn::kernels::internal

#endif  // FAIRGEN_NN_KERNELS_EXP_POLY_H_
