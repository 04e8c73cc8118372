#ifndef FAIRGEN_NN_TRANSFORMER_H_
#define FAIRGEN_NN_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "rng/rng.h"

namespace fairgen::nn {

class TransformerDecoder;

/// \brief Hyperparameters of the causal transformer walk model — the
/// architecture of the paper's generator g_θ (M1) and of the TagGen
/// baseline.
struct TransformerConfig {
  size_t vocab_size = 0;   ///< number of nodes n
  size_t dim = 64;         ///< node embedding dimension (paper: 100)
  size_t num_heads = 4;    ///< attention heads (paper: 4)
  size_t num_layers = 2;   ///< transformer blocks
  size_t ffn_dim = 128;    ///< feed-forward inner width
  size_t max_len = 32;     ///< maximum walk length supported
};

/// \brief Causal multi-head self-attention over sequences stacked
/// row-wise.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng& rng);

  /// Applies causal self-attention to x in [T, D]; positions attend only
  /// to themselves and earlier positions.
  Var Forward(const Var& x) const;

  /// The same over several sequences stacked in x's rows: sequence s owns
  /// rows [segment_offsets[s], segment_offsets[s+1]) and attends only
  /// within itself (see CausalSelfAttention).
  Var Forward(const Var& x, const std::vector<size_t>& segment_offsets) const;

  std::vector<Var> Parameters() const override;

 private:
  friend class TransformerDecoder;

  size_t num_heads_;
  Linear qkv_;   // D -> 3D
  Linear out_;   // D -> D
};

/// \brief Pre-norm transformer block: x + MHSA(LN(x)), then x + FFN(LN(x)).
class TransformerBlock : public Module {
 public:
  TransformerBlock(size_t dim, size_t num_heads, size_t ffn_dim, Rng& rng);

  /// Sequences stacked row-wise, as in MultiHeadSelfAttention::Forward.
  Var Forward(const Var& x, const std::vector<size_t>& segment_offsets) const;

  std::vector<Var> Parameters() const override;

 private:
  friend class TransformerDecoder;

  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  LayerNorm ln2_;
  Linear ffn1_;
  Linear ffn2_;
};

/// \brief One walk of a stacked training batch (see
/// TransformerLM::WalkBatchLoss).
struct TrainingWalk {
  const std::vector<uint32_t>* nodes;  ///< the walk, at least two nodes
  bool negative;  ///< scored by NegativeWalkPenalty instead of the NLL
};

/// \brief Causal transformer language model over node-id sequences
/// (random walks): the generator architecture g_θ of Eq. 4.
///
/// Every forward runs walks stacked row-wise: one walk is a one-segment
/// stack. All ops are row-wise except the attention core, which keeps
/// each walk to itself, so a walk's values do not depend on what it is
/// stacked with.
class TransformerLM : public Module {
 public:
  TransformerLM(const TransformerConfig& config, Rng& rng);

  /// Logits for predicting the *next* node at every position:
  /// given a walk prefix of length T', returns [T', vocab] logits where row
  /// t scores candidates for position t+1. Output projection is tied to
  /// the input node embedding.
  Var Logits(const std::vector<uint32_t>& walk) const;

  /// Logits for the next node after the *last* prefix position only
  /// ([1, vocab]). Projects a single row instead of all T', which makes
  /// autoregressive sampling O(D·V) instead of O(T·D·V) per token.
  Var NextLogits(const std::vector<uint32_t>& prefix) const;

  /// Average negative log-likelihood −(1/(T−1)) Σ_t log g(w_t | w_<t) of a
  /// complete walk (the reconstruction term of Eq. 1), as a scalar Var.
  /// Checks that every node is in the vocabulary.
  Var WalkNll(const std::vector<uint32_t>& walk) const;

  /// The generator's training loss over a batch of walks, built as one
  /// tape: the walks' prefixes are stacked into a (Σ T'_w)×D forward and
  /// scored by the fused TiedWalkLoss. Positive walks contribute
  /// WalkNll(walk); negative walks contribute NegativeWalkPenalty over
  /// Logits(prefix) with `floor_logprob`. Returns the sum of the per-walk
  /// losses; each value written to `walk_losses` (optional) is
  /// bit-identical to the per-walk call. Backward of the sum gives the
  /// sum of the per-walk gradients up to float summation order.
  /// `workspace` (optional) keeps the [R, V] buffers across calls.
  Var WalkBatchLoss(std::span<const TrainingWalk> walks, float floor_logprob,
                    std::vector<float>* walk_losses,
                    WalkLossWorkspace* workspace = nullptr) const;

  /// Samples the next node given a prefix; `temperature` scales logits.
  uint32_t SampleNext(const std::vector<uint32_t>& prefix, Rng& rng,
                      float temperature = 1.0f) const;

  /// Samples a complete walk of `length` nodes from `start`. Builds a
  /// TransformerDecoder per call; loops that sample many walks should
  /// keep one decoder and call its SampleWalk, which gives the same walks.
  std::vector<uint32_t> SampleWalk(uint32_t start, uint32_t length,
                                   Rng& rng, float temperature = 1.0f) const;

  /// The shared node-embedding table [vocab, dim]; the fair learning module
  /// d_θ consumes these embeddings as node features, which is what couples
  /// M1 and M2 into a jointly trained model.
  const Var& node_embeddings() const { return tok_.table(); }

  std::vector<Var> Parameters() const override;

  const TransformerConfig& config() const { return config_; }

 private:
  friend class TransformerDecoder;

  /// Hidden states [R, D] after the final layer norm for the sequences
  /// stacked in `tokens` (segments as in MultiHeadSelfAttention); each
  /// segment's positions start at 0. Checks each segment ≤ max_len.
  Var HiddenStates(const std::vector<uint32_t>& tokens,
                   const std::vector<size_t>& segment_offsets) const;

  TransformerConfig config_;
  Embedding tok_;
  Embedding pos_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
};

/// \brief KV-cached incremental decoder over a frozen TransformerLM.
///
/// Feeding tokens one at a time, Step() returns the next-token logits for
/// the prefix consumed so far while caching every layer's per-head K/V
/// rows, so each step costs O(D² + T·D) instead of the O(T·D² + T²·D) of
/// re-running the full forward pass over the whole prefix.
///
/// Bitwise contract: Step() reproduces `lm.NextLogits(prefix)->value`
/// exactly, bit for bit, because every op in the forward pass is row-wise
/// independent and the decoder replays the same kernels in the same
/// accumulation order on the last row only:
///  - single-row `kernels::MatMul`/`MatMulTransB` calls traverse p (and
///    the zero-skip fast path) exactly as the full-matrix call does for
///    that row;
///  - cached K/V rows equal recomputed ones because the weights are
///    frozen while decoding;
///  - the FFN's GELU is the same elementwise `kernels::Gelu` call as in
///    the training forward (nn::Gelu);
///  - the causal-mask add contributes exactly +0.0f on the surviving row,
///    which the decoder replays verbatim (x + 0.0f is not an FP identity
///    for -0.0, and the softmax consumes the same bits either way).
/// The parity test pins this against NextLogits for every prefix length.
///
/// The decoder holds a pointer to the model: the model must outlive it,
/// and mutating the model's parameters invalidates the cache (Reset()
/// recovers). Not thread-safe; use one decoder per thread.
class TransformerDecoder {
 public:
  explicit TransformerDecoder(const TransformerLM& lm);

  /// Drops the cached prefix; the next Step() starts a new sequence.
  void Reset() { length_ = 0; }

  /// Consumes `token` as prefix position length() and returns the [vocab]
  /// logits row for the following position (exactly vocab_size entries;
  /// valid until the next Step). Checks token < vocab_size and
  /// length() < max_len.
  std::span<const float> Step(uint32_t token);

  /// Number of tokens consumed since construction / Reset().
  size_t length() const { return length_; }

  /// Samples a complete walk of `length` nodes from `start` as a fresh
  /// sequence (Reset() first). Same walk and rng consumption as
  /// TransformerLM::SampleWalk, without rebuilding the decoder: the build
  /// transposes the whole embedding table, a large share of a short
  /// walk's decode time.
  std::vector<uint32_t> SampleWalk(uint32_t start, uint32_t length, Rng& rng,
                                   float temperature = 1.0f);

 private:
  struct HeadCache {
    /// K stored pre-transposed as [head_dim, max_len] (column t holds the
    /// key of position t), so the q·Kᵀ score row needs no per-step
    /// transpose — MatMulTransB's explicit transpose is the single
    /// largest cost of a naive decode loop.
    std::vector<float> kt;
    std::vector<float> v;  // [max_len, head_dim], rows filled up to length_
  };
  struct LayerCache {
    std::vector<HeadCache> heads;
  };

  const TransformerLM* lm_;
  size_t dim_;
  size_t head_dim_;
  size_t length_ = 0;
  std::vector<LayerCache> layers_;
  /// Embedding table transposed once at construction ([dim, vocab_stride_]):
  /// the weights are frozen while decoding, so the tied output projection
  /// is a plain matmul against this instead of a transpose per step. The
  /// stride rounds vocab up to 16 floats and the padding columns are
  /// zero, so every row starts on a 64-byte line at any vocab size: the
  /// logits row is the largest cost of a token, and at 16 bytes off a
  /// line half of its 32-byte loads straddle two lines.
  size_t vocab_stride_;
  FloatBuffer tok_t_;

  // Scratch rows, sized once at construction.
  std::vector<float> x_;        // [dim] residual stream
  std::vector<float> norm_;     // [dim] layer-norm output
  std::vector<float> qkv_row_;  // [3*dim]
  std::vector<float> scores_;   // [max_len] attention scores/probs
  std::vector<float> probs_;    // [max_len]
  std::vector<float> concat_;   // [dim] concatenated head outputs
  std::vector<float> sub_;      // [max(dim, ffn_dim)] sublayer output
  std::vector<float> gelu_tanh_;  // [ffn_dim] kernels::Gelu's 1 + tanh
  FloatBuffer logits_;          // [vocab_stride_], padding columns 0
};

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_TRANSFORMER_H_
