#include "nn/categorical.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "nn/kernels/kernels.h"
#include "nn/tensor.h"

namespace fairgen::nn {

uint32_t PickCategorical(const float* weights, const double* block_sums,
                         size_t n, double u) {
  // The block holding the pick: the first whose running total exceeds u,
  // or the last positive block when none does. Zero blocks are skipped,
  // so the chosen block always has a positive weight.
  const size_t blocks = kernels::DrawBlocks(n);
  size_t block = 0;
  double before = 0.0;
  double acc = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    if (!(block_sums[b] > 0.0)) continue;
    block = b;
    before = acc;
    acc += block_sums[b];
    if (u < acc) break;
  }
  const size_t lo = block * kernels::kDrawBlock;
  const size_t hi = std::min(n, lo + kernels::kDrawBlock);
  acc = before;
  size_t last_positive = lo;
  for (size_t j = lo; j < hi; ++j) {
    if (!(weights[j] > 0.0f)) continue;
    acc += weights[j];
    last_positive = j;
    if (u < acc) break;
  }
  return static_cast<uint32_t>(last_positive);
}

uint32_t SampleLogitsRow(const float* logits, size_t n, float temperature,
                         Rng& rng) {
  FAIRGEN_CHECK(n > 0);
  // 64-byte aligned, like the logits rows the decoders pass in.
  static thread_local FloatBuffer weights;
  static thread_local std::vector<double> block_sums;
  weights.resize(n);
  block_sums.resize(kernels::DrawBlocks(n));
  const double total = kernels::CategoricalWeights(
      logits, n, temperature, weights.data(), block_sums.data());
  if (!(total > 0.0) || !std::isfinite(total)) {
    return rng.UniformU32(static_cast<uint32_t>(n));
  }
  return PickCategorical(weights.data(), block_sums.data(), n,
                         rng.UniformDouble() * total);
}

}  // namespace fairgen::nn
