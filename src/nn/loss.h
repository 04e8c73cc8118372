#ifndef FAIRGEN_NN_LOSS_H_
#define FAIRGEN_NN_LOSS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/autograd.h"
#include "nn/ops.h"

namespace fairgen::nn {

/// \brief Average next-token negative log-likelihood of a sequence:
/// −(1/T') Σ_t log softmax(logits)[t, targets[t]].
///
/// This is the walk reconstruction loss of Eq. 1 / Eq. 4 for one walk.
/// Checks every target < cols.
Var SequenceNll(const Var& logits, const std::vector<uint32_t>& targets);

/// \brief Penalty pushing *down* the probability of a negative walk
/// (Algorithm 1, steps 4/6): mean_t relu(log p_t − floor_logprob).
///
/// Hinging at `floor_logprob` (e.g., log(1/vocab)) keeps the objective
/// bounded: the model is only penalized while it assigns a negative
/// transition more probability than an uninformed guess. Checks every
/// target < cols.
Var NegativeWalkPenalty(const Var& logits,
                        const std::vector<uint32_t>& targets,
                        float floor_logprob);

/// \brief Row layout and targets of walks stacked row-wise for one
/// `TiedWalkLoss` call. Walk w owns rows [offsets[w], offsets[w+1]); row
/// r predicts node targets[r].
struct StackedWalkTargets {
  std::vector<size_t> offsets;    ///< walks + 1 entries, from 0 to rows
  std::vector<uint32_t> targets;  ///< one next node per row
  /// Per walk: 1 scores it with the NegativeWalkPenalty hinge at
  /// `floor_logprob`, 0 with SequenceNll.
  std::vector<uint8_t> negative;
  float floor_logprob = 0.0f;
};

/// \brief Reusable buffers of `TiedWalkLoss`: the [R, V] block that
/// holds the logits, then in place their softmax, then the logit
/// gradient, and the [V, D] table-gradient product.
///
/// A caller that runs many batches keeps one per thread. A fresh buffer
/// per batch is a >128 KiB malloc/free pair, which moves glibc's dynamic
/// mmap threshold and leaves freed heap pages resident, so the workspace
/// maps its pages directly and unmaps them on destruction. A workspace
/// serves one live loss node at a time and must outlive it: reusing it
/// before the previous node's backward ran makes that backward fail a
/// check.
class WalkLossWorkspace {
 public:
  WalkLossWorkspace() = default;
  ~WalkLossWorkspace();
  WalkLossWorkspace(const WalkLossWorkspace&) = delete;
  WalkLossWorkspace& operator=(const WalkLossWorkspace&) = delete;

 private:
  friend Var TiedWalkLoss(const Var&, const Var&, const StackedWalkTargets&,
                          std::vector<float>*, WalkLossWorkspace*);

  /// At least `floats` floats; contents are unspecified.
  float* Reserve(size_t floats);

  float* data_ = nullptr;
  size_t capacity_ = 0;
  uint64_t generation_ = 0;
};

/// \brief The generator's walk loss over walks stacked row-wise, with the
/// tied output projection fused in: logits = hidden · tableᵀ ([R, V]),
/// then per walk either the mean NLL of SequenceNll or the hinge of
/// NegativeWalkPenalty. Returns the sum of the per-walk losses as a
/// scalar, so one Backward accumulates the sum of the per-walk gradients;
/// `walk_losses` (optional) receives the per-walk values.
///
/// Each per-walk value is bit-identical to `SequenceNll` /
/// `NegativeWalkPenalty` applied to `MatMulTransBOp(hidden rows, table)`:
/// the logits rows come from the same kernel, and each walk's softmax
/// runs the same kernel calls. The [R, V] logits are never a tape node:
/// without a workspace the op owns one buffer, with one it uses the
/// workspace's (see `WalkLossWorkspace`). Checks every target < V.
Var TiedWalkLoss(const Var& hidden, const Var& table,
                 const StackedWalkTargets& batch,
                 std::vector<float>* walk_losses,
                 WalkLossWorkspace* workspace = nullptr);

/// \brief Mean softmax cross-entropy over a [B, C] logits batch.
Var SoftmaxCrossEntropy(const Var& logits,
                        const std::vector<uint32_t>& labels);

/// \brief Cost-sensitive cross-entropy Σ_i ξ_i · CE_i (Eq. 8 first term).
/// `weights[i]` is the ratio ξ_{x_i} of Eq. 9.
Var WeightedSoftmaxCrossEntropy(const Var& logits,
                                const std::vector<uint32_t>& labels,
                                const std::vector<float>& weights);

/// \brief Mean binary cross-entropy with logits against float targets in
/// [0, 1]; numerically stable formulation. Used by the GAE baseline.
Var BceWithLogits(const Var& logits, const std::vector<float>& targets);

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_LOSS_H_
