// The stacked training tape: the fused causal-attention and tied walk-loss
// ops, TransformerLM::WalkBatchLoss against the per-walk calls it
// replaces, the reusable KV-cache decoder, and the vocabulary checks on
// walk-loss targets.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "generators/generator.h"
#include "nn/grad_check.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/transformer.h"

namespace fairgen::nn {
namespace {

TransformerConfig SmallConfig() {
  TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.dim = 12;
  cfg.num_heads = 3;
  cfg.num_layers = 2;
  cfg.ffn_dim = 20;
  cfg.max_len = 8;
  return cfg;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Mixed positive and negative walks of ragged lengths 2..max_len+1 (a
// prefix of 1..max_len rows), including one-row walks of each kind.
struct MixedBatch {
  std::vector<std::vector<uint32_t>> walks;
  std::vector<TrainingWalk> items;
};

MixedBatch MakeBatch(const TransformerConfig& cfg, uint64_t seed) {
  MixedBatch batch;
  Rng rng(seed);
  std::vector<size_t> lengths{2, 2};
  for (size_t len = 3; len <= cfg.max_len + 1; ++len) lengths.push_back(len);
  for (size_t i = 0; i < lengths.size(); ++i) {
    std::vector<uint32_t> walk(lengths[i]);
    for (uint32_t& v : walk) {
      v = rng.UniformU32(static_cast<uint32_t>(cfg.vocab_size));
    }
    batch.walks.push_back(std::move(walk));
  }
  for (size_t i = 0; i < batch.walks.size(); ++i) {
    batch.items.push_back({&batch.walks[i], /*negative=*/i % 2 == 1});
  }
  return batch;
}

// The per-walk reference of WalkBatchLoss for one item.
Var PerWalkLoss(const TransformerLM& lm, const TrainingWalk& item,
                float floor_logprob) {
  const std::vector<uint32_t>& walk = *item.nodes;
  if (!item.negative) return lm.WalkNll(walk);
  std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
  std::vector<uint32_t> targets(walk.begin() + 1, walk.end());
  return NegativeWalkPenalty(lm.Logits(prefix), targets, floor_logprob);
}

std::vector<Tensor> Grads(const TransformerLM& lm) {
  std::vector<Tensor> out;
  for (const Var& p : lm.Parameters()) out.push_back(p->grad);
  return out;
}

// Half the vocabulary's uniform log-probability: random-init models put
// some negative rows above it and some below, so both hinge branches run.
float FloorFor(const TransformerConfig& cfg) {
  return -std::log(static_cast<float>(cfg.vocab_size));
}

TEST(WalkBatchLossTest, PerWalkValuesAreBitwiseThePerWalkCalls) {
  Rng rng(1);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const MixedBatch batch = MakeBatch(cfg, 2);
  const float floor = FloorFor(cfg);
  std::vector<float> values;
  Var total = lm.WalkBatchLoss(batch.items, floor, &values);
  ASSERT_EQ(values.size(), batch.items.size());
  double sum = 0.0;
  size_t active_negatives = 0;
  for (size_t w = 0; w < batch.items.size(); ++w) {
    const float ref = PerWalkLoss(lm, batch.items[w], floor)->value.ScalarValue();
    EXPECT_TRUE(SameBits(values[w], ref))
        << "walk " << w << ": " << values[w] << " vs " << ref;
    if (batch.items[w].negative && values[w] > 0.0f) ++active_negatives;
    sum += values[w];
  }
  EXPECT_GT(active_negatives, 0u) << "no negative walk crossed the floor";
  EXPECT_TRUE(SameBits(total->value.ScalarValue(), static_cast<float>(sum)));
}

TEST(WalkBatchLossTest, GradientsMatchThePerWalkSum) {
  Rng rng(3);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const MixedBatch batch = MakeBatch(cfg, 4);
  const float floor = FloorFor(cfg);

  ZeroGrad(lm.Parameters());
  for (const TrainingWalk& item : batch.items) {
    Backward(PerWalkLoss(lm, item, floor));
  }
  const std::vector<Tensor> reference = Grads(lm);

  ZeroGrad(lm.Parameters());
  Backward(lm.WalkBatchLoss(batch.items, floor, nullptr));
  const std::vector<Tensor> batched = Grads(lm);

  ASSERT_EQ(batched.size(), reference.size());
  for (size_t p = 0; p < reference.size(); ++p) {
    double diff = 0.0;
    double norm = 0.0;
    for (size_t i = 0; i < reference[p].size(); ++i) {
      const double d = batched[p].data()[i] - reference[p].data()[i];
      diff += d * d;
      norm += static_cast<double>(reference[p].data()[i]) *
              reference[p].data()[i];
    }
    ASSERT_GT(norm, 0.0) << "parameter " << p << " got no gradient";
    EXPECT_LE(std::sqrt(diff / norm), 1e-5) << "parameter " << p;
  }
}

TEST(WalkBatchLossTest, WorkspaceGivesTheSameValuesAndGradients) {
  Rng rng(5);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const MixedBatch batch = MakeBatch(cfg, 6);
  const float floor = FloorFor(cfg);

  std::vector<float> owned_values;
  ZeroGrad(lm.Parameters());
  Backward(lm.WalkBatchLoss(batch.items, floor, &owned_values));
  const std::vector<Tensor> owned = Grads(lm);

  WalkLossWorkspace workspace;
  for (int round = 0; round < 2; ++round) {
    std::vector<float> values;
    ZeroGrad(lm.Parameters());
    Backward(lm.WalkBatchLoss(batch.items, floor, &values, &workspace));
    EXPECT_EQ(values, owned_values) << "round " << round;
    const std::vector<Tensor> grads = Grads(lm);
    for (size_t p = 0; p < grads.size(); ++p) {
      EXPECT_TRUE(SameBits(grads[p], owned[p]))
          << "round " << round << " parameter " << p;
    }
  }
}

TEST(WalkBatchLossDeathTest, WorkspaceReusedBeforeBackwardIsCaught) {
  Rng rng(7);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const MixedBatch batch = MakeBatch(cfg, 8);
  WalkLossWorkspace workspace;
  Var first = lm.WalkBatchLoss(batch.items, 0.0f, nullptr, &workspace);
  Var second = lm.WalkBatchLoss(batch.items, 0.0f, nullptr, &workspace);
  EXPECT_DEATH(Backward(first), "reused before");
}

TEST(CausalSelfAttentionTest, StackedSegmentsEqualSeparateCallsBitwise) {
  Rng rng(9);
  const size_t dim = 12;
  const size_t heads = 3;
  const std::vector<size_t> offsets{0, 1, 5, 7, 13};
  Tensor qkv = Tensor::Randn(offsets.back(), 3 * dim, 1.0f, rng);
  qkv.at(2, 4) = -0.0f;  // a −0 score input must keep the chain's bits
  Var stacked = CausalSelfAttention(MakeConstant(qkv), offsets, heads);
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    const size_t len = offsets[s + 1] - offsets[s];
    Tensor part(len, 3 * dim);
    std::memcpy(part.data(), qkv.row(offsets[s]),
                part.size() * sizeof(float));
    Var alone = CausalSelfAttention(MakeConstant(part), {0, len}, heads);
    EXPECT_EQ(std::memcmp(alone->value.data(), stacked->value.row(offsets[s]),
                          alone->value.size() * sizeof(float)),
              0)
        << "segment " << s;
  }
}

TEST(CausalSelfAttentionTest, GradCheck) {
  Rng rng(10);
  const std::vector<size_t> offsets{0, 1, 4, 9};
  Var qkv = MakeParameter(Tensor::Randn(offsets.back(), 3 * 6, 0.7f, rng));
  Tensor weights = Tensor::Randn(offsets.back(), 6, 1.0f, rng);
  auto loss = [&]() {
    Var out = CausalSelfAttention(qkv, offsets, /*heads=*/2);
    return SumAll(Mul(out, MakeConstant(weights)));
  };
  Rng check_rng(11);
  const GradCheckResult result = CheckGradients(loss, {qkv}, 40, check_rng);
  EXPECT_LT(result.max_rel_error, 2e-2) << "abs=" << result.max_abs_error;
}

TEST(CausalSelfAttentionDeathTest, RejectsBadSegments) {
  Var qkv = MakeConstant(Tensor(4, 12));
  EXPECT_DEATH(CausalSelfAttention(qkv, {0, 3}, 2), "segment offsets");
  EXPECT_DEATH(CausalSelfAttention(qkv, {0, 2, 2, 4}, 2), "is empty");
}

TEST(TiedWalkLossTest, GradCheckMixedWalks) {
  Rng rng(12);
  const size_t vocab = 7;
  const size_t dim = 5;
  Var hidden = MakeParameter(Tensor::Randn(6, dim, 1.0f, rng));
  Var table = MakeParameter(Tensor::Randn(vocab, dim, 1.0f, rng));
  StackedWalkTargets batch;
  batch.offsets = {0, 1, 4, 6};
  batch.targets = {3, 0, 6, 2, 5, 1};
  batch.negative = {0, 1, 1};
  // Between the rows' log-probabilities, so the hinge is active on some
  // rows only; finite differences stay away from the kink at this eps.
  batch.floor_logprob = -std::log(static_cast<float>(vocab));
  auto loss = [&]() { return TiedWalkLoss(hidden, table, batch, nullptr); };
  Rng check_rng(13);
  const GradCheckResult result =
      CheckGradients(loss, {hidden, table}, 20, check_rng);
  EXPECT_LT(result.max_rel_error, 2e-2) << "abs=" << result.max_abs_error;
}

TEST(WalkLossTargetDeathTest, OutOfVocabularyTargetsAreRejected) {
  Rng rng(14);
  Var logits = MakeConstant(Tensor::Randn(2, 4, 1.0f, rng));
  EXPECT_DEATH(SequenceNll(logits, {1, 4}), "outside the vocabulary");
  EXPECT_DEATH(NegativeWalkPenalty(logits, {9, 0}, -1.0f),
               "outside the vocabulary");
  StackedWalkTargets batch;
  batch.offsets = {0, 2};
  batch.targets = {0, 4};
  batch.negative = {0};
  Var hidden = MakeConstant(Tensor::Randn(2, 3, 1.0f, rng));
  Var table = MakeConstant(Tensor::Randn(4, 3, 1.0f, rng));
  EXPECT_DEATH(TiedWalkLoss(hidden, table, batch, nullptr),
               "outside the vocabulary");
}

TEST(WalkLossTargetDeathTest, WalkNllRejectsAnOutOfVocabularyLastNode) {
  // The embedding gather checks the prefix; the last node is only a
  // target, and used to be read and written past the logits row.
  Rng rng(15);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const uint32_t n = static_cast<uint32_t>(cfg.vocab_size);
  EXPECT_DEATH(lm.WalkNll({0, n}), "outside the vocabulary");
  EXPECT_DEATH(lm.WalkNll({0, 1, n + 100}), "outside the vocabulary");
}

TEST(TransformerDecoderReuseTest, ReusedDecoderWalksEqualFreshDecoderWalks) {
  Rng rng(16);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  TransformerDecoder reused(lm);
  Rng reused_rng(17);
  Rng fresh_rng(17);
  for (uint32_t i = 0; i < 12; ++i) {
    const uint32_t start = i % static_cast<uint32_t>(cfg.vocab_size);
    const uint32_t length = 1 + i % static_cast<uint32_t>(cfg.max_len);
    const std::vector<uint32_t> walk =
        reused.SampleWalk(start, length, reused_rng, 0.9f);
    EXPECT_EQ(walk, lm.SampleWalk(start, length, fresh_rng, 0.9f))
        << "walk " << i;
    EXPECT_EQ(walk.size(), length);
  }
  EXPECT_EQ(reused_rng.NextU32(), fresh_rng.NextU32());
}

TEST(TransformerDecoderReuseTest, PerChunkDecodersGiveTheSameScores) {
  // AccumulateWalkScores with one decoder per budget chunk must equal the
  // stateless sampler that builds a decoder per walk.
  Rng rng(18);
  const TransformerConfig cfg = SmallConfig();
  TransformerLM lm(cfg, rng);
  const uint32_t n = static_cast<uint32_t>(cfg.vocab_size);
  auto start_of = [n](Rng& r) { return r.UniformU32(n); };
  for (uint32_t threads : {1u, 3u}) {
    Rng a(19);
    Rng b(19);
    const EdgeScoreAccumulator stateless = AccumulateWalkScores(
        n, 300, threads, a, [&](Rng& r) {
          return lm.SampleWalk(start_of(r), cfg.max_len, r);
        });
    const EdgeScoreAccumulator per_chunk = AccumulateWalkScores(
        n, 300, threads, b, [&] {
          auto decoder = std::make_shared<TransformerDecoder>(lm);
          return WalkSampler([&, decoder](Rng& r) {
            return decoder->SampleWalk(start_of(r), cfg.max_len, r);
          });
        });
    EXPECT_EQ(stateless.ScoredEdges(), per_chunk.ScoredEdges())
        << threads << " threads";
  }
}

}  // namespace
}  // namespace fairgen::nn
