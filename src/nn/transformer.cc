#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/categorical.h"
#include "nn/kernels/kernels.h"
#include "nn/loss.h"

namespace fairgen::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng& rng)
    : num_heads_(num_heads),
      qkv_(dim, 3 * dim, rng),
      out_(dim, dim, rng) {
  FAIRGEN_CHECK(dim % num_heads == 0)
      << "dim " << dim << " not divisible by heads " << num_heads;
}

Var MultiHeadSelfAttention::Forward(const Var& x) const {
  return Forward(x, {0, x->rows()});
}

Var MultiHeadSelfAttention::Forward(
    const Var& x, const std::vector<size_t>& segment_offsets) const {
  return out_.Forward(
      CausalSelfAttention(qkv_.Forward(x), segment_offsets, num_heads_));
}

std::vector<Var> MultiHeadSelfAttention::Parameters() const {
  std::vector<Var> params = qkv_.Parameters();
  for (const Var& p : out_.Parameters()) params.push_back(p);
  return params;
}

TransformerBlock::TransformerBlock(size_t dim, size_t num_heads,
                                   size_t ffn_dim, Rng& rng)
    : ln1_(dim),
      attn_(dim, num_heads, rng),
      ln2_(dim),
      ffn1_(dim, ffn_dim, rng),
      ffn2_(ffn_dim, dim, rng) {}

Var TransformerBlock::Forward(
    const Var& x, const std::vector<size_t>& segment_offsets) const {
  Var h = Add(x, attn_.Forward(ln1_.Forward(x), segment_offsets));
  Var ffn = ffn2_.Forward(Gelu(ffn1_.Forward(ln2_.Forward(h))));
  return Add(h, ffn);
}

std::vector<Var> TransformerBlock::Parameters() const {
  std::vector<Var> params;
  for (const auto* m :
       std::initializer_list<const Module*>{&ln1_, &attn_, &ln2_}) {
    for (const Var& p : m->Parameters()) params.push_back(p);
  }
  for (const Var& p : ffn1_.Parameters()) params.push_back(p);
  for (const Var& p : ffn2_.Parameters()) params.push_back(p);
  return params;
}

TransformerLM::TransformerLM(const TransformerConfig& config, Rng& rng)
    : config_(config),
      tok_(config.vocab_size, config.dim, rng),
      pos_(config.max_len, config.dim, rng),
      final_ln_(config.dim) {
  FAIRGEN_CHECK(config.vocab_size > 0);
  blocks_.reserve(config.num_layers);
  for (size_t l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        config.dim, config.num_heads, config.ffn_dim, rng));
  }
}

Var TransformerLM::HiddenStates(
    const std::vector<uint32_t>& tokens,
    const std::vector<size_t>& segment_offsets) const {
  std::vector<uint32_t> positions(tokens.size());
  for (size_t s = 0; s + 1 < segment_offsets.size(); ++s) {
    const size_t lo = segment_offsets[s];
    const size_t hi = segment_offsets[s + 1];
    FAIRGEN_CHECK(hi - lo <= config_.max_len)
        << "walk length " << hi - lo << " exceeds max_len "
        << config_.max_len;
    for (size_t i = lo; i < hi; ++i) {
      positions[i] = static_cast<uint32_t>(i - lo);
    }
  }
  Var x = Add(tok_.Forward(tokens), pos_.Forward(positions));
  for (const auto& block : blocks_) {
    x = block->Forward(x, segment_offsets);
  }
  return final_ln_.Forward(x);
}

Var TransformerLM::Logits(const std::vector<uint32_t>& walk) const {
  FAIRGEN_CHECK(!walk.empty());
  Var x = HiddenStates(walk, {0, walk.size()});
  // Tied output projection: logits = x · E^T.
  return MatMulTransBOp(x, tok_.table());
}

Var TransformerLM::NextLogits(const std::vector<uint32_t>& prefix) const {
  FAIRGEN_CHECK(!prefix.empty());
  Var x = HiddenStates(prefix, {0, prefix.size()});
  return MatMulTransBOp(Row(x, x->rows() - 1), tok_.table());
}

Var TransformerLM::WalkNll(const std::vector<uint32_t>& walk) const {
  const TrainingWalk one{&walk, /*negative=*/false};
  return WalkBatchLoss({&one, 1}, /*floor_logprob=*/0.0f, nullptr);
}

Var TransformerLM::WalkBatchLoss(std::span<const TrainingWalk> walks,
                                 float floor_logprob,
                                 std::vector<float>* walk_losses,
                                 WalkLossWorkspace* workspace) const {
  FAIRGEN_CHECK(!walks.empty());
  // Row t of a walk's prefix predicts node t+1; the last node is only a
  // target.
  StackedWalkTargets batch;
  batch.floor_logprob = floor_logprob;
  batch.offsets.reserve(walks.size() + 1);
  batch.offsets.push_back(0);
  batch.negative.reserve(walks.size());
  std::vector<uint32_t> tokens;
  for (const TrainingWalk& walk : walks) {
    const std::vector<uint32_t>& nodes = *walk.nodes;
    FAIRGEN_CHECK(nodes.size() >= 2);
    tokens.insert(tokens.end(), nodes.begin(), nodes.end() - 1);
    batch.targets.insert(batch.targets.end(), nodes.begin() + 1, nodes.end());
    batch.offsets.push_back(tokens.size());
    batch.negative.push_back(walk.negative ? 1 : 0);
  }
  Var x = HiddenStates(tokens, batch.offsets);
  return TiedWalkLoss(x, tok_.table(), batch, walk_losses, workspace);
}

uint32_t TransformerLM::SampleNext(const std::vector<uint32_t>& prefix,
                                   Rng& rng, float temperature) const {
  FAIRGEN_CHECK(!prefix.empty());
  FAIRGEN_CHECK(temperature > 0.0f);
  // Pure inference: skip tape construction entirely (forward values are
  // identical with or without the tape).
  NoGradScope no_grad;
  Var logits = NextLogits(prefix);
  return SampleLogitsRow(logits->value.row(0), config_.vocab_size,
                         temperature, rng);
}

std::vector<uint32_t> TransformerLM::SampleWalk(uint32_t start,
                                                uint32_t length, Rng& rng,
                                                float temperature) const {
  FAIRGEN_CHECK(start < config_.vocab_size);
  if (length <= 1) return {start};
  TransformerDecoder decoder(*this);
  return decoder.SampleWalk(start, length, rng, temperature);
}

std::vector<Var> TransformerLM::Parameters() const {
  std::vector<Var> params = tok_.Parameters();
  for (const Var& p : pos_.Parameters()) params.push_back(p);
  for (const auto& block : blocks_) {
    for (const Var& p : block->Parameters()) params.push_back(p);
  }
  for (const Var& p : final_ln_.Parameters()) params.push_back(p);
  return params;
}

// ---------------------------------------------------------------------------
// TransformerDecoder
// ---------------------------------------------------------------------------
//
// The single-row helpers below replay the exact floating-point operation
// sequences of the ops.cc forwards they shadow (LayerNormRows, the
// attention softmax of CausalSelfAttention, AddRowBroadcast). Any change
// to those loops must be mirrored here; the
// KvDecoderMatchesNextLogitsBitwise test pins the equivalence. The GELU
// needs no copy: Gelu and the decoder both call kernels::Gelu.

namespace {
// LayerNormRows forward on one row, eps = LayerNorm's default 1e-5f.
void NormRow(const float* src, const float* g, const float* b, size_t cols,
             float* dst) {
  double mean = 0.0;
  for (size_t c = 0; c < cols; ++c) mean += src[c];
  mean /= static_cast<double>(cols);
  double var = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    double d = src[c] - mean;
    var += d * d;
  }
  var /= static_cast<double>(cols);
  float inv_std = static_cast<float>(1.0 / std::sqrt(var + 1e-5f));
  for (size_t c = 0; c < cols; ++c) {
    float xhat = (src[c] - static_cast<float>(mean)) * inv_std;
    dst[c] = g[c] * xhat + b[c];
  }
}

// SoftmaxRowForward (float max, float exp, double total).
void SoftmaxRow(const float* src, size_t cols, float* dst) {
  float max_val = src[0];
  for (size_t c = 1; c < cols; ++c) max_val = std::max(max_val, src[c]);
  double total = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    dst[c] = std::exp(src[c] - max_val);
    total += dst[c];
  }
  float inv = static_cast<float>(1.0 / total);
  for (size_t c = 0; c < cols; ++c) dst[c] *= inv;
}

// AddRowBroadcast on one row; Linear skips the add when bias is null.
void AddBiasRow(float* row, const Var& bias, size_t cols) {
  if (bias == nullptr) return;
  const float* b = bias->value.row(0);
  for (size_t c = 0; c < cols; ++c) row[c] += b[c];
}

// Single-row matmul c[1,n] = a[1,k] · B[k,n] where B's rows are `stride`
// apart (a submatrix view). Per output element this accumulates p in
// ascending order with the same zero-skip as the kernel matmuls, so the
// bits match a kernels::MatMul call on a compacted B. (This TU is built
// without FMA, so the separate multiply and add cannot be contracted.)
void MatVecStrided(const float* a, const float* b, size_t stride, float* c,
                   size_t k, size_t n) {
  std::fill(c, c + n, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    const float av = a[p];
    if (av == 0.0f) continue;
    const float* brow = b + p * stride;
    for (size_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}
}  // namespace

TransformerDecoder::TransformerDecoder(const TransformerLM& lm)
    : lm_(&lm),
      dim_(lm.config_.dim),
      head_dim_(lm.config_.dim / lm.config_.num_heads),
      layers_(lm.config_.num_layers),
      vocab_stride_((lm.config_.vocab_size + 15) / 16 * 16) {
  const TransformerConfig& cfg = lm.config_;
  for (LayerCache& layer : layers_) {
    layer.heads.resize(cfg.num_heads);
    for (HeadCache& head : layer.heads) {
      head.kt.resize(head_dim_ * cfg.max_len);
      head.v.resize(cfg.max_len * head_dim_);
    }
  }
  // Transpose the tied embedding table once (same element moves as
  // MatMulTransB's internal transpose, hoisted out of the step loop).
  // Each logit column is computed on its own, so the zero padding
  // columns change no bits of the vocab columns.
  const float* table = lm.tok_.table()->value.data();
  tok_t_.assign(dim_ * vocab_stride_, 0.0f);
  for (size_t j = 0; j < cfg.vocab_size; ++j) {
    for (size_t p = 0; p < dim_; ++p) {
      tok_t_[p * vocab_stride_ + j] = table[j * dim_ + p];
    }
  }
  x_.resize(dim_);
  norm_.resize(dim_);
  qkv_row_.resize(3 * dim_);
  scores_.resize(cfg.max_len);
  probs_.resize(cfg.max_len);
  concat_.resize(dim_);
  sub_.resize(std::max(dim_, cfg.ffn_dim));
  gelu_tanh_.resize(cfg.ffn_dim);
  logits_.resize(vocab_stride_);
}

std::vector<uint32_t> TransformerDecoder::SampleWalk(uint32_t start,
                                                     uint32_t length,
                                                     Rng& rng,
                                                     float temperature) {
  const size_t vocab = lm_->config_.vocab_size;
  FAIRGEN_CHECK(start < vocab);
  std::vector<uint32_t> walk{start};
  if (walk.size() >= length) return walk;
  FAIRGEN_CHECK(temperature > 0.0f);
  // Incremental decode: one KV-cached step per token instead of a full
  // forward pass over the growing prefix. The logits are bitwise
  // identical to NextLogits (see the class comment), and both draw with
  // SampleLogitsRow, so this produces the same walks as a SampleNext loop.
  Reset();
  uint32_t cur = start;
  while (walk.size() < length) {
    cur = SampleLogitsRow(Step(cur).data(), vocab, temperature, rng);
    walk.push_back(cur);
  }
  return walk;
}

std::span<const float> TransformerDecoder::Step(uint32_t token) {
  const TransformerConfig& cfg = lm_->config_;
  FAIRGEN_CHECK(token < cfg.vocab_size);
  FAIRGEN_CHECK(length_ < cfg.max_len)
      << "decoder prefix already at max_len " << cfg.max_len;
  const size_t t = length_;

  // Embedding row: tok[token] + pos[t].
  const float* tok_row = lm_->tok_.table()->value.row(token);
  const float* pos_row = lm_->pos_.table()->value.row(t);
  for (size_t c = 0; c < dim_; ++c) x_[c] = tok_row[c] + pos_row[c];

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (size_t l = 0; l < layers_.size(); ++l) {
    const TransformerBlock& block = *lm_->blocks_[l];
    const MultiHeadSelfAttention& attn = block.attn_;
    LayerCache& cache = layers_[l];

    // Attention sublayer: x += Wout · concat_h(softmax(q·Kᵀ/√dh)·V) + b.
    NormRow(x_.data(), block.ln1_.gain()->value.row(0),
            block.ln1_.bias()->value.row(0), dim_, norm_.data());
    kernels::MatMul(norm_.data(), attn.qkv_.weight()->value.data(),
                    qkv_row_.data(), 1, dim_, 3 * dim_);
    AddBiasRow(qkv_row_.data(), attn.qkv_.bias(), 3 * dim_);
    for (size_t h = 0; h < cache.heads.size(); ++h) {
      HeadCache& head = cache.heads[h];
      const float* q = qkv_row_.data() + h * head_dim_;
      const float* k_new = qkv_row_.data() + dim_ + h * head_dim_;
      const float* v_new = qkv_row_.data() + 2 * dim_ + h * head_dim_;
      for (size_t p = 0; p < head_dim_; ++p) {
        head.kt[p * cfg.max_len + t] = k_new[p];
      }
      std::copy(v_new, v_new + head_dim_, head.v.begin() + t * head_dim_);

      // scores = (q · Kᵀ) * scale, then the causal-mask add: the mask row
      // for the newest position is all zeros, and x + 0.0f is *not* an FP
      // identity (it flips -0.0 to +0.0), so the add is replayed
      // verbatim to keep the bits equal to the full forward pass.
      MatVecStrided(q, head.kt.data(), cfg.max_len, scores_.data(),
                    head_dim_, t + 1);
      kernels::Scale(scores_.data(), scale, t + 1);
      for (size_t j = 0; j <= t; ++j) scores_[j] += 0.0f;
      SoftmaxRow(scores_.data(), t + 1, probs_.data());
      kernels::MatMul(probs_.data(), head.v.data(),
                      concat_.data() + h * head_dim_, 1, t + 1, head_dim_);
    }
    kernels::MatMul(concat_.data(), attn.out_.weight()->value.data(),
                    sub_.data(), 1, dim_, dim_);
    AddBiasRow(sub_.data(), attn.out_.bias(), dim_);
    for (size_t c = 0; c < dim_; ++c) x_[c] += sub_[c];

    // FFN sublayer: x += W2 · gelu(W1 · ln2(x) + b1) + b2.
    NormRow(x_.data(), block.ln2_.gain()->value.row(0),
            block.ln2_.bias()->value.row(0), dim_, norm_.data());
    kernels::MatMul(norm_.data(), block.ffn1_.weight()->value.data(),
                    sub_.data(), 1, dim_, cfg.ffn_dim);
    AddBiasRow(sub_.data(), block.ffn1_.bias(), cfg.ffn_dim);
    kernels::Gelu(sub_.data(), cfg.ffn_dim, sub_.data(), gelu_tanh_.data());
    kernels::MatMul(sub_.data(), block.ffn2_.weight()->value.data(),
                    norm_.data(), 1, cfg.ffn_dim, dim_);
    AddBiasRow(norm_.data(), block.ffn2_.bias(), dim_);
    for (size_t c = 0; c < dim_; ++c) x_[c] += norm_[c];
  }

  // Final layer norm + tied output projection (logits = x · Eᵀ, against
  // the table transposed once at construction).
  NormRow(x_.data(), lm_->final_ln_.gain()->value.row(0),
          lm_->final_ln_.bias()->value.row(0), dim_, norm_.data());
  kernels::MatMul(norm_.data(), tok_t_.data(), logits_.data(), 1, dim_,
                  vocab_stride_);
  ++length_;
  return {logits_.data(), cfg.vocab_size};
}

}  // namespace fairgen::nn
