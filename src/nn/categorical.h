#ifndef FAIRGEN_NN_CATEGORICAL_H_
#define FAIRGEN_NN_CATEGORICAL_H_

#include <cstddef>
#include <cstdint>

#include "rng/rng.h"

namespace fairgen::nn {

/// \brief Draws a token from softmax(logits / temperature) over a row of
/// `n` logits: the one draw path of every walk decoder (the transformer's
/// SampleNext and KV decoder, the LSTM's SampleNext and SampleWalk).
///
/// The weights and their block sums come from
/// `kernels::CategoricalWeights`, so the draw is bitwise the same on
/// both kernel backends. Exactly one rng draw per call: if the weight
/// total is not finite and positive (a NaN logit), `UniformU32(n)`, so
/// the result is always in range; otherwise `PickCategorical` at
/// `UniformDouble() · total`. A weight-0 token (a −inf logit) is never
/// returned. The weights live in per-thread buffers reused across calls.
/// `temperature` must be positive.
uint32_t SampleLogitsRow(const float* logits, size_t n, float temperature,
                         Rng& rng);

/// \brief The pick of `SampleLogitsRow`: the first index j whose prefix
/// sum of positive weights exceeds `u`, found by scanning `block_sums`
/// (as written by `kernels::CategoricalWeights`) and then the one block
/// that holds j. Non-positive weights are skipped; when rounding leaves
/// `u` past the last prefix sum, the last positive weight is returned.
/// At least one weight must be positive.
uint32_t PickCategorical(const float* weights, const double* block_sums,
                         size_t n, double u);

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_CATEGORICAL_H_
