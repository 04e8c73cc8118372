// Portable scalar backend — the determinism reference implementation.
//
// The *per-element* operation sequence is the contract: for every output
// element, both backends apply the identical multiply-then-add sequence
// (accumulator starting from 0.0f, reduction index p ascending, zero-skip
// on the A multiplier), which is what makes them bitwise-identical. Loop
// *nesting* may differ — this file panels columns for cache locality
// while kernels_avx2.cc register-blocks the accumulators — because
// regrouping which outputs are updated together has no numeric effect.
// The softmax and categorical-draw kernels reduce along a row instead;
// they keep one partial per AVX2 lane and fold the eight in a fixed order
// (exp_poly.h), so the scalar loops below replay the vector reduction
// exactly.
// Change the per-element sequence in one file, change both, and let
// tests/nn/kernels_test.cc arbitrate.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/exp_poly.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn::kernels::internal {
namespace {

// Columns of C updated per pass. Keeps the active B panel (kPanel floats
// per B row) and the C row segment resident in L1 while streaming over
// the reduction dimension. Panelling only regroups *which* outputs are
// updated together; each c[i][j] still accumulates p = 0..k-1 in order,
// so the split has no numeric effect.
constexpr size_t kColumnPanel = 256;

void MatMulScalar(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  std::fill(c, c + m * n, 0.0f);
  for (size_t j0 = 0; j0 < n; j0 += kColumnPanel) {
    const size_t j1 = std::min(n, j0 + kColumnPanel);
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;  // one-hot rows make this common
        const float* brow = b + p * n;
        for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// C[m,n] = A[k,m]^T · B[k,n]: saxpy over the shared dimension. Each
// c[i][j] accumulates p in increasing order, matching MatMulScalar's
// per-element sequence.
void MatMulTransAScalar(const float* a, const float* b, float* c, size_t m,
                        size_t k, size_t n) {
  std::fill(c, c + m * n, 0.0f);
  for (size_t j0 = 0; j0 < n; j0 += kColumnPanel) {
    const size_t j1 = std::min(n, j0 + kColumnPanel);
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (size_t i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = c + i * n;
        for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void AddScalarImpl(float* a, const float* b, size_t len) {
  for (size_t i = 0; i < len; ++i) a[i] += b[i];
}

void AddScaledScalarImpl(float* a, const float* b, float alpha, size_t len) {
  for (size_t i = 0; i < len; ++i) a[i] += alpha * b[i];
}

void ScaleScalarImpl(float* a, float alpha, size_t len) {
  for (size_t i = 0; i < len; ++i) a[i] *= alpha;
}

// Row max as eight lane maxima (element j to lane j % 8, each lane
// starting at −inf) folded by FoldMax: the AVX2 reduction, lane by lane.
float RowMaxScalar(const float* row, size_t n) {
  float lanes[kLanes];
  std::fill(lanes, lanes + kLanes, -INFINITY);
  for (size_t j = 0; j < n; ++j) {
    lanes[j % kLanes] = MaxLane(lanes[j % kLanes], row[j]);
  }
  return FoldMax(lanes);
}

double SoftmaxNllForwardScalar(const float* logits, size_t rows, size_t cols,
                               const uint32_t* targets, float* probs) {
  double total = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = logits + r * cols;
    float* prow = probs + r * cols;
    // Read before prow is written: probs may alias logits.
    const float target_logit = row[targets[r]];
    const float max_v = RowMaxScalar(row, cols);
    double sums[kLanes] = {};
    for (size_t j = 0; j < cols; ++j) {
      prow[j] = ExpPoly(row[j] - max_v);
      sums[j % kLanes] += prow[j];
    }
    const double sum = FoldSum(sums);
    const double inv = 1.0 / sum;
    for (size_t j = 0; j < cols; ++j) {
      prow[j] = static_cast<float>(prow[j] * inv);
    }
    total += (std::log(sum) + max_v) - static_cast<double>(target_logit);
  }
  return total;
}

double CategoricalWeightsScalar(const float* logits, size_t n,
                                float temperature, float* weights,
                                double* block_sums) {
  const float max_v = RowMaxScalar(logits, n);
  double total = 0.0;
  for (size_t b0 = 0; b0 < n; b0 += kDrawBlock) {
    const size_t b1 = std::min(n, b0 + kDrawBlock);
    double sums[kLanes] = {};
    for (size_t j = b0; j < b1; ++j) {
      weights[j] = ExpPoly((logits[j] - max_v) / temperature);
      sums[j % kLanes] += weights[j];
    }
    const double block_sum = FoldSum(sums);
    block_sums[b0 / kDrawBlock] = block_sum;
    total += block_sum;
  }
  return total;
}

void GeluScalar(const float* x, size_t n, float* y, float* one_plus_tanh) {
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float t = GeluOnePlusTanh(xi);
    one_plus_tanh[i] = t;
    y[i] = 0.5f * xi * t;
  }
}

void SoftmaxNllBackwardScalar(const float* probs, const uint32_t* targets,
                              const uint8_t* row_mask, float gscale,
                              size_t rows, size_t cols, float* dlogits) {
  for (size_t r = 0; r < rows; ++r) {
    if (row_mask != nullptr && row_mask[r] == 0) continue;
    const float* prow = probs + r * cols;
    float* drow = dlogits + r * cols;
    for (size_t j = 0; j < cols; ++j) drow[j] += gscale * prow[j];
    drow[targets[r]] -= gscale;
  }
}

void AdamUpdateScalar(float* value, const float* grad, float* m, float* v,
                      size_t len, const AdamStepParams& p) {
  for (size_t i = 0; i < len; ++i) {
    const float g = grad[i];
    m[i] = p.beta1 * m[i] + (1.0f - p.beta1) * g;
    v[i] = p.beta2 * v[i] + (1.0f - p.beta2) * g * g;
    const float mhat = m[i] / p.bias1;
    const float vhat = v[i] / p.bias2;
    const float update = mhat / (std::sqrt(vhat) + p.eps);
    // Decoupled weight decay (AdamW).
    value[i] -= p.lr * (update + p.weight_decay * value[i]);
  }
}

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      &MatMulScalar,
      &MatMulTransAScalar,
      &AddScalarImpl,
      &AddScaledScalarImpl,
      &ScaleScalarImpl,
      &SoftmaxNllForwardScalar,
      &SoftmaxNllBackwardScalar,
      &CategoricalWeightsScalar,
      &GeluScalar,
      &AdamUpdateScalar,
  };
  return table;
}

}  // namespace fairgen::nn::kernels::internal
