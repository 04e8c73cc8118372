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

void MatMulAvx2(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const float av = arow[p];
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
        const float av = arow[p];
        if (av == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(av),
                               _mm256_loadu_ps(b + p * n + j)));
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        acc += av * b[p * n + j];
      }
      crow[j] = acc;
    }
  }
}

void MatMulTransAAvx2(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
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
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(av),
                               _mm256_loadu_ps(b + p * n + j)));
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        acc += av * b[p * n + j];
      }
      crow[j] = acc;
    }
  }
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

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      &MatMulAvx2, &MatMulTransAAvx2,        &AddAvx2,
      &AddScaledAvx2, &ScaleAvx2, &SoftmaxNllBackwardAvx2,
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
