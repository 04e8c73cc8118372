// AVX2 backend: 8-wide vectorization of the scalar reference loops in
// kernels_scalar.cc.
//
// Bitwise parity with scalar is a hard requirement (the determinism
// suite certifies builds against the scalar reference): every output
// element sees the identical multiply-then-add sequence over the same
// p-order. Two rules make that hold:
//  - separate _mm256_mul_ps / _mm256_add_ps, never FMA — and the build
//    compiles this TU with -ffp-contract=off so the compiler cannot
//    re-fuse them;
//  - the zero-skip on the broadcast multiplier is kept, so the set of
//    adds applied to each element matches scalar exactly.
//
// On non-x86 targets (or toolchains without AVX2) this TU degrades to
// re-exporting the scalar table, and the dispatcher reports the backend
// as unavailable.

#include "nn/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/exp_poly.h"

// The kernels keep external linkage, so the profiler's dladdr (the build
// exports executable symbols) names the table entries and the
// out-of-line MatMul4Rows in profile_top.json instead of printing bare
// addresses. Only the inline helpers sit in anonymous namespaces: an
// inline function with external linkage could have this TU's AVX2 copy
// picked by the linker for another TU (see exp_poly.h).
namespace fairgen::nn::kernels::internal {
namespace {

// crow[j0..j1) += av * brow[j0..j1), 8 lanes at a time + scalar tail.
inline void AxpyRow(float* crow, const float* brow, float av, size_t j0,
                    size_t j1) {
  const __m256 vav = _mm256_set1_ps(av);
  size_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(brow + j));
    _mm256_storeu_ps(crow + j,
                     _mm256_add_ps(_mm256_loadu_ps(crow + j), prod));
  }
  for (; j < j1; ++j) crow[j] += av * brow[j];
}

// Both matmuls below keep C[i, j-block] in registers across the whole
// p-reduction and store once, instead of streaming the C row through
// memory for every p. Each output element still receives exactly the
// scalar reference's multiply-then-add sequence (p ascending, zero-skip
// on the broadcast multiplier, accumulator starting from 0.0f), so the
// bits are unchanged — register blocking only removes intermediate
// load/store round-trips. Two j-blocks per iteration give the adds two
// independent dependency chains.
//
// A operand access is strided so one body serves both layouts: the
// multiplier of output row i at reduction step p is a[i * rs + p * ps]
// (MatMul: rs = k, ps = 1; MatMulTransA: rs = 1, ps = m).

// Columns [j0, n) of one output row, one at a time.
inline void MatMulRowTail(const float* a, size_t ps, const float* b,
                          float* crow, size_t k, size_t n, size_t j0) {
  for (size_t j = j0; j < n; ++j) {
    float acc = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p * ps];
      if (av == 0.0f) continue;
      acc += av * b[p * n + j];
    }
    crow[j] = acc;
  }
}

// One output row: c[0, n) = Σ_p a(p) · B[p, :]. The 32-column block
// keeps four independent add chains in flight, which is what hides the
// add latency of the single-row decode products (the logits row is the
// largest cost of a decoded token); the 16/8/tail loops finish the row.
inline void MatMulRow(const float* a, size_t ps, const float* b, float* crow,
                      size_t k, size_t n) {
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p * ps];
      if (av == 0.0f) continue;
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
      acc2 = _mm256_add_ps(acc2,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 16)));
      acc3 = _mm256_add_ps(acc3,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
  }
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p * ps];
      if (av == 0.0f) continue;
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p * ps];
      if (av == 0.0f) continue;
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(av),
                             _mm256_loadu_ps(b + p * n + j)));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  MatMulRowTail(a, ps, b, crow, k, n, j);
}

// acc += av · bv unless av is zero: the reference's zero-skip, per row.
inline __m256 AccumulateUnlessZero(__m256 acc, float av, __m256 bv) {
  if (av == 0.0f) return acc;
  return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), bv));
}

}  // namespace

// Four output rows at once: every B vector loaded at step p feeds four
// rows' accumulators instead of one, which is what makes the stacked
// training products (tens of rows against the vocabulary-wide table)
// load-bound no longer. Each row keeps its own zero-skip, so every
// element sees the MatMulRow sequence. Kept out of line: inlined into
// the dispatch loop it slowed the single-row decode product by ~10%.
[[gnu::noinline]] void MatMul4Rows(const float* a, size_t rs, size_t ps,
                                   const float* b, float* c, size_t k,
                                   size_t n) {
  const float* a0 = a;
  const float* a1 = a + rs;
  const float* a2 = a + 2 * rs;
  const float* a3 = a + 3 * rs;
  float* c0 = c;
  float* c1 = c + n;
  float* c2 = c + 2 * n;
  float* c3 = c + 3 * n;
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const float v0 = a0[p * ps];
      const float v1 = a1[p * ps];
      const float v2 = a2[p * ps];
      const float v3 = a3[p * ps];
      acc00 = AccumulateUnlessZero(acc00, v0, b0);
      acc01 = AccumulateUnlessZero(acc01, v0, b1);
      acc10 = AccumulateUnlessZero(acc10, v1, b0);
      acc11 = AccumulateUnlessZero(acc11, v1, b1);
      acc20 = AccumulateUnlessZero(acc20, v2, b0);
      acc21 = AccumulateUnlessZero(acc21, v2, b1);
      acc30 = AccumulateUnlessZero(acc30, v3, b0);
      acc31 = AccumulateUnlessZero(acc31, v3, b1);
    }
    _mm256_storeu_ps(c0 + j, acc00);
    _mm256_storeu_ps(c0 + j + 8, acc01);
    _mm256_storeu_ps(c1 + j, acc10);
    _mm256_storeu_ps(c1 + j + 8, acc11);
    _mm256_storeu_ps(c2 + j, acc20);
    _mm256_storeu_ps(c2 + j + 8, acc21);
    _mm256_storeu_ps(c3 + j, acc30);
    _mm256_storeu_ps(c3 + j + 8, acc31);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      acc0 = AccumulateUnlessZero(acc0, a0[p * ps], bv);
      acc1 = AccumulateUnlessZero(acc1, a1[p * ps], bv);
      acc2 = AccumulateUnlessZero(acc2, a2[p * ps], bv);
      acc3 = AccumulateUnlessZero(acc3, a3[p * ps], bv);
    }
    _mm256_storeu_ps(c0 + j, acc0);
    _mm256_storeu_ps(c1 + j, acc1);
    _mm256_storeu_ps(c2 + j, acc2);
    _mm256_storeu_ps(c3 + j, acc3);
  }
  for (size_t r = 0; r < 4; ++r) {
    MatMulRowTail(a + r * rs, ps, b, c + r * n, k, n, j);
  }
}

namespace {

// C[m, n] from m rows of multipliers (see the stride rule above): blocks
// of four rows, then the remainder one row at a time.
// Inlined into both callers so the constant stride folds into MatMulRow.
[[gnu::always_inline]] inline void MatMulStridedAvx2(
    const float* a, size_t rs, size_t ps, const float* b, float* c, size_t m,
    size_t k, size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    MatMul4Rows(a + i * rs, rs, ps, b, c + i * n, k, n);
  }
  for (; i < m; ++i) MatMulRow(a + i * rs, ps, b, c + i * n, k, n);
}

}  // namespace

void MatMulAvx2(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  MatMulStridedAvx2(a, k, 1, b, c, m, k, n);
}

void MatMulTransAAvx2(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n) {
  MatMulStridedAvx2(a, 1, m, b, c, m, k, n);
}

void AddAvx2(float* a, const float* b, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < len; ++i) a[i] += b[i];
}

void AddScaledAvx2(float* a, const float* b, float alpha, size_t len) {
  AxpyRow(a, b, alpha, 0, len);
}

void ScaleAvx2(float* a, float alpha, size_t len) {
  const __m256 valpha = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), valpha));
  }
  for (; i < len; ++i) a[i] *= alpha;
}

namespace {

// ExpPoly (exp_poly.h) on eight lanes: the same op sequence per lane.
// _mm256_max_ps(lo, x) returns x when x is NaN, matching MaxLane(lo, x);
// the ordered x < lo compare is false for NaN, so NaN stays NaN.
inline __m256 ExpPoly8(__m256 x) {
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 magic = _mm256_set1_ps(kRoundMagic);
  const __m256 xc = _mm256_max_ps(lo, x);
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)), magic);
  const __m256 n = _mm256_sub_ps(t, magic);
  __m256 r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  const __m256 y = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
      _mm256_set1_ps(1.0f));
  const __m256i scale_bits = _mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_castps_si256(t),
                       _mm256_set1_epi32(static_cast<int>(kScaleBiasBits))),
      23);
  const __m256 out = _mm256_mul_ps(y, _mm256_castsi256_ps(scale_bits));
  return _mm256_andnot_ps(_mm256_cmp_ps(x, lo, _CMP_LT_OQ), out);
}

// Widens the eight floats of v into two four-double vectors (lanes 0–3
// and 4–7).
inline void WidenToDouble(__m256 v, __m256d* lo, __m256d* hi) {
  *lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  *hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

}  // namespace

// RowMaxScalar's lane maxima, one vector at a time; the tail continues
// the same lanes before the shared fold.
float RowMaxAvx2(const float* row, size_t n) {
  __m256 acc = _mm256_set1_ps(-INFINITY);
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(row + j));
  }
  alignas(32) float lanes[kLanes] = {};
  _mm256_store_ps(lanes, acc);
  for (; j < n; ++j) lanes[j % kLanes] = MaxLane(lanes[j % kLanes], row[j]);
  return FoldMax(lanes);
}

double SoftmaxNllForwardAvx2(const float* logits, size_t rows, size_t cols,
                             const uint32_t* targets, float* probs) {
  double total = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = logits + r * cols;
    float* prow = probs + r * cols;
    // Read before prow is written: probs may alias logits.
    const float target_logit = row[targets[r]];
    const float max_v = RowMaxAvx2(row, cols);
    const __m256 vmax = _mm256_set1_ps(max_v);
    __m256d sum_lo = _mm256_setzero_pd();
    __m256d sum_hi = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      const __m256 e = ExpPoly8(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmax));
      _mm256_storeu_ps(prow + j, e);
      __m256d e_lo, e_hi;
      WidenToDouble(e, &e_lo, &e_hi);
      sum_lo = _mm256_add_pd(sum_lo, e_lo);
      sum_hi = _mm256_add_pd(sum_hi, e_hi);
    }
    alignas(32) double sums[kLanes] = {};
    _mm256_store_pd(sums, sum_lo);
    _mm256_store_pd(sums + 4, sum_hi);
    for (; j < cols; ++j) {
      prow[j] = ExpPoly(row[j] - max_v);
      sums[j % kLanes] += prow[j];
    }
    const double sum = FoldSum(sums);
    const double inv = 1.0 / sum;
    const __m256d vinv = _mm256_set1_pd(inv);
    j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      __m256d p_lo, p_hi;
      WidenToDouble(_mm256_loadu_ps(prow + j), &p_lo, &p_hi);
      _mm256_storeu_ps(
          prow + j,
          _mm256_set_m128(_mm256_cvtpd_ps(_mm256_mul_pd(p_hi, vinv)),
                          _mm256_cvtpd_ps(_mm256_mul_pd(p_lo, vinv))));
    }
    for (; j < cols; ++j) prow[j] = static_cast<float>(prow[j] * inv);
    total += (std::log(sum) + max_v) - static_cast<double>(target_logit);
  }
  return total;
}

// CategoricalWeightsScalar block by block: within a block, element j
// goes to lane j % kLanes (blocks start at multiples of 64), and the
// ragged tail of the last block continues the same lanes.
double CategoricalWeightsAvx2(const float* logits, size_t n,
                              float temperature, float* weights,
                              double* block_sums) {
  const float max_v = RowMaxAvx2(logits, n);
  const __m256 vmax = _mm256_set1_ps(max_v);
  const __m256 vtemp = _mm256_set1_ps(temperature);
  // x / 1.0f is exact for every float (NaN and ±inf included), so the
  // default temperature skips the divide and keeps the scalar bits.
  const bool unit_temperature = temperature == 1.0f;
  double total = 0.0;
  for (size_t b0 = 0; b0 < n; b0 += kDrawBlock) {
    const size_t b1 = std::min(n, b0 + kDrawBlock);
    __m256d sum_lo = _mm256_setzero_pd();
    __m256d sum_hi = _mm256_setzero_pd();
    size_t j = b0;
    for (; j + kLanes <= b1; j += kLanes) {
      const __m256 shifted = _mm256_sub_ps(_mm256_loadu_ps(logits + j), vmax);
      const __m256 e = ExpPoly8(
          unit_temperature ? shifted : _mm256_div_ps(shifted, vtemp));
      _mm256_storeu_ps(weights + j, e);
      __m256d e_lo, e_hi;
      WidenToDouble(e, &e_lo, &e_hi);
      sum_lo = _mm256_add_pd(sum_lo, e_lo);
      sum_hi = _mm256_add_pd(sum_hi, e_hi);
    }
    alignas(32) double sums[kLanes];
    _mm256_store_pd(sums, sum_lo);
    _mm256_store_pd(sums + 4, sum_hi);
    for (; j < b1; ++j) {
      weights[j] = ExpPoly((logits[j] - max_v) / temperature);
      sums[j % kLanes] += weights[j];
    }
    const double block_sum = FoldSum(sums);
    block_sums[b0 / kDrawBlock] = block_sum;
    total += block_sum;
  }
  return total;
}

namespace {

// GeluOnePlusTanh (exp_poly.h) on eight lanes. |z| clears the sign bit
// as std::fabs does; the ordered z < 0 compare is false for NaN, which
// keeps the NaN of s, as the scalar select does.
inline __m256 GeluOnePlusTanh8(__m256 x) {
  const __m256 cubic = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluCubic), x), x), x);
  const __m256 z =
      _mm256_mul_ps(_mm256_set1_ps(kGeluSqrt2OverPi), _mm256_add_ps(x, cubic));
  const __m256 abs_z = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), z);
  const __m256 e = ExpPoly8(_mm256_mul_ps(_mm256_set1_ps(-2.0f), abs_z));
  const __m256 s = _mm256_div_ps(_mm256_set1_ps(2.0f),
                                 _mm256_add_ps(_mm256_set1_ps(1.0f), e));
  return _mm256_blendv_ps(
      s, _mm256_mul_ps(e, s),
      _mm256_cmp_ps(z, _mm256_setzero_ps(), _CMP_LT_OQ));
}

}  // namespace

void GeluAvx2(const float* x, size_t n, float* y, float* one_plus_tanh) {
  const __m256 half = _mm256_set1_ps(0.5f);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 xi = _mm256_loadu_ps(x + i);
    const __m256 t = GeluOnePlusTanh8(xi);
    _mm256_storeu_ps(one_plus_tanh + i, t);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_mul_ps(half, xi), t));
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    const float t = GeluOnePlusTanh(xi);
    one_plus_tanh[i] = t;
    y[i] = 0.5f * xi * t;
  }
}

void SoftmaxNllBackwardAvx2(const float* probs, const uint32_t* targets,
                            const uint8_t* row_mask, float gscale,
                            size_t rows, size_t cols, float* dlogits) {
  for (size_t r = 0; r < rows; ++r) {
    if (row_mask != nullptr && row_mask[r] == 0) continue;
    float* drow = dlogits + r * cols;
    AxpyRow(drow, probs + r * cols, gscale, 0, cols);
    drow[targets[r]] -= gscale;
  }
}

// Lane-wise replay of AdamUpdateScalar: the same mul/add/div/sqrt
// sequence, each correctly rounded, so every element matches scalar.
void AdamUpdateAvx2(float* value, const float* grad, float* m, float* v,
                    size_t len, const AdamStepParams& p) {
  const __m256 beta1 = _mm256_set1_ps(p.beta1);
  const __m256 one_minus_beta1 = _mm256_set1_ps(1.0f - p.beta1);
  const __m256 beta2 = _mm256_set1_ps(p.beta2);
  const __m256 one_minus_beta2 = _mm256_set1_ps(1.0f - p.beta2);
  const __m256 bias1 = _mm256_set1_ps(p.bias1);
  const __m256 bias2 = _mm256_set1_ps(p.bias2);
  const __m256 eps = _mm256_set1_ps(p.eps);
  const __m256 lr = _mm256_set1_ps(p.lr);
  const __m256 decay = _mm256_set1_ps(p.weight_decay);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    const __m256 mi =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                      _mm256_mul_ps(one_minus_beta1, g));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, g), g));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 update =
        _mm256_div_ps(_mm256_div_ps(mi, bias1),
                      _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vi, bias2)),
                                    eps));
    const __m256 x = _mm256_loadu_ps(value + i);
    _mm256_storeu_ps(
        value + i,
        _mm256_sub_ps(x, _mm256_mul_ps(lr, _mm256_add_ps(
                                               update,
                                               _mm256_mul_ps(decay, x)))));
  }
  for (; i < len; ++i) {
    const float g = grad[i];
    m[i] = p.beta1 * m[i] + (1.0f - p.beta1) * g;
    v[i] = p.beta2 * v[i] + (1.0f - p.beta2) * g * g;
    const float update =
        (m[i] / p.bias1) / (std::sqrt(v[i] / p.bias2) + p.eps);
    value[i] -= p.lr * (update + p.weight_decay * value[i]);
  }
}

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      &MatMulAvx2,
      &MatMulTransAAvx2,
      &AddAvx2,
      &AddScaledAvx2,
      &ScaleAvx2,
      &SoftmaxNllForwardAvx2,
      &SoftmaxNllBackwardAvx2,
      &CategoricalWeightsAvx2,
      &GeluAvx2,
      &AdamUpdateAvx2,
  };
  return table;
}

bool Avx2CompiledIn() { return true; }

}  // namespace fairgen::nn::kernels::internal

#else  // !defined(__AVX2__)

namespace fairgen::nn::kernels::internal {

const KernelTable& Avx2Table() { return ScalarTable(); }

bool Avx2CompiledIn() { return false; }

}  // namespace fairgen::nn::kernels::internal

#endif  // defined(__AVX2__)
