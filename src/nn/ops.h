#ifndef FAIRGEN_NN_OPS_H_
#define FAIRGEN_NN_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/autograd.h"

namespace fairgen::nn {

// ---------------------------------------------------------------------------
// Elementwise / arithmetic
// ---------------------------------------------------------------------------

/// c = a + b (same shape).
Var Add(const Var& a, const Var& b);

/// c = a - b (same shape).
Var Sub(const Var& a, const Var& b);

/// c = a ⊙ b (elementwise, same shape).
Var Mul(const Var& a, const Var& b);

/// c = alpha * a.
Var Scale(const Var& a, float alpha);

/// c = a + alpha (elementwise constant shift).
Var AddScalar(const Var& a, float alpha);

/// c[i][j] = a[i][j] + b[0][j] — adds a row vector to every row (bias add).
Var AddRowBroadcast(const Var& a, const Var& b);

/// ReLU.
Var Relu(const Var& a);

/// tanh.
Var TanhOp(const Var& a);

/// Logistic sigmoid.
Var SigmoidOp(const Var& a);

/// Gaussian error linear unit (tanh approximation).
Var Gelu(const Var& a);

/// Elementwise natural log; inputs are clamped to >= eps for stability.
Var LogOp(const Var& a, float eps = 1e-12f);

/// Elementwise exp; inputs are clamped to <= max_input to avoid overflow.
Var ExpOp(const Var& a, float max_input = 30.0f);

/// Elementwise |a|.
Var AbsOp(const Var& a);

/// Elementwise square.
Var Square(const Var& a);

// ---------------------------------------------------------------------------
// Matrix ops
// ---------------------------------------------------------------------------

/// c = a · b.
Var MatMulOp(const Var& a, const Var& b);

/// c = a^T.
Var TransposeOp(const Var& a);

/// c = a · b^T without materializing the transpose. Replaces the
/// `MatMulOp(a, TransposeOp(b))` composition on hot paths (tied output
/// projection, attention q·kᵀ): forward and both backward products run
/// as single kernel calls.
Var MatMulTransBOp(const Var& a, const Var& b);

/// c = x · w + bias (row-broadcast), fused into one tape node. `bias`
/// may be null (plain matmul). Bitwise identical to the
/// `AddRowBroadcast(MatMulOp(x, w), bias)` composition it replaces, but
/// skips that composition's full output copy and extra node — Linear
/// layers sit on the per-walk training hot path.
Var LinearOp(const Var& x, const Var& w, const Var& bias);

/// Causal multi-head self-attention core over walks stacked row-wise.
/// `qkv` is [R, 3D] (queries, keys, values side by side, each D wide and
/// split into `heads` blocks of D/heads columns); walk s owns rows
/// [segment_offsets[s], segment_offsets[s+1]) and attends only within
/// itself, causally. Returns the concatenated head outputs [R, D].
/// `segment_offsets` starts at 0, ends at R, and strictly increases.
///
/// Per walk and head the forward runs q·kᵀ (kernels::MatMulTransB), the
/// 1/√(D/heads) scale, the additive causal mask (−1e9 above the
/// diagonal, +0 elsewhere), a row softmax and the matmul with v: the
/// sequence the KV-cache decoder (nn/transformer.h) replays on one row,
/// so the two agree bit for bit. A walk's output does not depend on the
/// walks stacked with it.
Var CausalSelfAttention(const Var& qkv,
                        const std::vector<size_t>& segment_offsets,
                        size_t heads);

/// Columns [start, start+len) of a.
Var SliceCols(const Var& a, size_t start, size_t len);

/// Horizontal concatenation of column blocks.
Var ConcatCols(const std::vector<Var>& parts);

/// Rows `indices` of `table` (embedding gather); backward scatter-adds.
Var GatherRows(const Var& table, const std::vector<uint32_t>& indices);

/// One row of `a` as a [1, cols] variable.
Var Row(const Var& a, size_t r);

// ---------------------------------------------------------------------------
// Reductions & normalization
// ---------------------------------------------------------------------------

/// Sum of all entries -> [1,1].
Var SumAll(const Var& a);

/// Mean of all entries -> [1,1].
Var MeanAll(const Var& a);

/// Row-wise softmax (each row sums to one).
Var SoftmaxRows(const Var& a);

/// Row-wise log-softmax.
Var LogSoftmaxRows(const Var& a);

/// out[i][0] = a[i][targets[i]] — picks one column per row (used to gather
/// the log-probability of the realized next node in a walk).
Var PickPerRow(const Var& a, const std::vector<uint32_t>& targets);

/// Row-wise layer normalization with learned gain/bias:
/// y = gain ⊙ (x − mean) / sqrt(var + eps) + bias. `gain`/`bias` are [1, D].
Var LayerNormRows(const Var& x, const Var& gain, const Var& bias,
                  float eps = 1e-5f);

/// Weighted sum: sum_i weights[i] * a[i][0] -> [1,1]; `a` must be a column.
/// The weights are constants (e.g., the cost-sensitive ratios ξ of Eq. 9).
Var WeightedColumnSum(const Var& a, const std::vector<float>& weights);

// ---------------------------------------------------------------------------
// Sparse support (GCN encoder of the GAE baseline)
// ---------------------------------------------------------------------------

/// \brief Immutable CSR float sparse matrix (symmetric in our GCN usage).
struct SparseMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<size_t> offsets;    // rows+1
  std::vector<uint32_t> indices;  // column ids
  std::vector<float> values;

  /// y = S · x for a dense x.
  Tensor Apply(const Tensor& x) const;
};

/// y = S · x, where S is a constant sparse matrix that must be symmetric
/// (so the backward is dX = S · dY). The shared_ptr keeps S alive for the
/// backward pass.
Var SpMM(std::shared_ptr<const SparseMatrix> s, const Var& x);

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_OPS_H_
