// Data-parallel minibatch suite: the sharded gradient of nn/data_parallel.h
// must be bitwise independent of the thread count, equal the plain
// sequential loop with one shard, and fold the per-shard gradients in
// shard order.

#include "nn/data_parallel.h"

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "nn/transformer.h"

namespace fairgen::nn {
namespace {

TransformerConfig SmallConfig() {
  TransformerConfig cfg;
  cfg.vocab_size = 23;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 12;
  cfg.max_len = 8;
  return cfg;
}

// A model whose parameters are a pure function of `seed`.
std::unique_ptr<TransformerLM> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<TransformerLM>(SmallConfig(), rng);
}

std::vector<std::vector<uint32_t>> MakeWalks(size_t count) {
  Rng rng(99);
  std::vector<std::vector<uint32_t>> walks(count);
  for (auto& walk : walks) {
    const size_t len = 2 + rng.UniformU32(6);  // ragged lengths
    for (size_t i = 0; i < len; ++i) walk.push_back(rng.UniformU32(23));
  }
  return walks;
}

std::vector<std::vector<float>> Grads(const TransformerLM& lm) {
  std::vector<std::vector<float>> out;
  for (const Var& p : lm.Parameters()) {
    out.emplace_back(p->grad.data(), p->grad.data() + p->grad.size());
  }
  return out;
}

bool BitwiseEqual(const std::vector<std::vector<float>>& a,
                  const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

// The master model plus `shards - 1` replicas (initialized differently on
// purpose: Accumulate must overwrite their values from the master).
struct ShardedModel {
  std::unique_ptr<TransformerLM> master;
  std::vector<std::unique_ptr<TransformerLM>> replicas;
  std::unique_ptr<DataParallelGrads> grads;

  explicit ShardedModel(size_t shards) : master(MakeModel(7)) {
    std::vector<std::vector<Var>> replica_params;
    for (size_t s = 1; s < shards; ++s) {
      replicas.push_back(MakeModel(100 + s));
      replica_params.push_back(replicas.back()->Parameters());
    }
    grads = std::make_unique<DataParallelGrads>(master->Parameters(),
                                                std::move(replica_params));
  }

  const TransformerLM& Shard(size_t shard) const {
    return shard == 0 ? *master : *replicas[shard - 1];
  }

  // One minibatch over `walks`; returns the master gradients.
  std::vector<std::vector<float>> Run(
      const std::vector<std::vector<uint32_t>>& walks, uint32_t threads) {
    grads->Accumulate(walks.size(), threads,
                      [&](size_t shard, size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          Backward(Shard(shard).WalkNll(walks[i]));
                        }
                      });
    return Grads(*master);
  }
};

// Sequential reference: zero the gradients of a fresh master and
// back-propagate `walks[lo, hi)` one by one.
std::vector<std::vector<float>> SequentialGrads(
    const std::vector<std::vector<uint32_t>>& walks, size_t lo, size_t hi) {
  std::unique_ptr<TransformerLM> lm = MakeModel(7);
  ZeroGrad(lm->Parameters());
  for (size_t i = lo; i < hi; ++i) Backward(lm->WalkNll(walks[i]));
  return Grads(*lm);
}

TEST(DataParallelGradsTest, OneShardIsTheSequentialLoop) {
  const auto walks = MakeWalks(9);
  ShardedModel model(1);
  EXPECT_TRUE(
      BitwiseEqual(model.Run(walks, 4), SequentialGrads(walks, 0, 9)));
}

TEST(DataParallelGradsTest, ShardsFoldInShardOrder) {
  // 7 items over 3 shards: slices [0,3), [3,6), [6,7).
  const auto walks = MakeWalks(7);
  auto expected = SequentialGrads(walks, 0, 3);
  for (auto [lo, hi] : {std::pair<size_t, size_t>{3, 6}, {6, 7}}) {
    const auto shard = SequentialGrads(walks, lo, hi);
    for (size_t p = 0; p < expected.size(); ++p) {
      for (size_t j = 0; j < expected[p].size(); ++j) {
        expected[p][j] += shard[p][j];
      }
    }
  }
  ShardedModel model(3);
  EXPECT_TRUE(BitwiseEqual(model.Run(walks, 2), expected));
}

TEST(DataParallelGradsTest, FewerItemsThanShardsUsesOneShardPerItem) {
  const auto walks = MakeWalks(2);
  auto expected = SequentialGrads(walks, 0, 1);
  const auto second = SequentialGrads(walks, 1, 2);
  for (size_t p = 0; p < expected.size(); ++p) {
    for (size_t j = 0; j < expected[p].size(); ++j) {
      expected[p][j] += second[p][j];
    }
  }
  ShardedModel model(4);
  EXPECT_TRUE(BitwiseEqual(model.Run(walks, 4), expected));
}

TEST(DataParallelGradsTest, GradientsAreThreadCountInvariant) {
  const auto walks = MakeWalks(16);
  ShardedModel model(4);
  const auto serial = model.Run(walks, 1);
  EXPECT_TRUE(BitwiseEqual(model.Run(walks, 2), serial));
  EXPECT_TRUE(BitwiseEqual(model.Run(walks, 4), serial));
}

TEST(DataParallelGradsTest, StackedShardTapesAreThreadCountInvariant) {
  // The trainer's layout: each shard back-propagates its whole item range
  // as one stacked tape, alternating positive and negative walks.
  const auto walks = MakeWalks(11);
  std::vector<TrainingWalk> items;
  for (size_t i = 0; i < walks.size(); ++i) {
    items.push_back({&walks[i], /*negative=*/i % 2 == 1});
  }
  ShardedModel model(3);
  auto run = [&](uint32_t threads) {
    model.grads->Accumulate(
        items.size(), threads, [&](size_t shard, size_t lo, size_t hi) {
          Backward(model.Shard(shard).WalkBatchLoss(
              std::span(items).subspan(lo, hi - lo), -3.0f, nullptr));
        });
    return Grads(*model.master);
  };
  const auto serial = run(1);
  EXPECT_TRUE(BitwiseEqual(run(2), serial));
  EXPECT_TRUE(BitwiseEqual(run(4), serial));
}

TEST(DataParallelGradsTest, ReplicasSeeTheCurrentMasterValues) {
  ShardedModel model(3);
  // Move the master after construction; every shard must compute with
  // the moved values.
  for (const Var& p : model.master->Parameters()) p->value.Scale(0.5f);
  model.grads->Accumulate(3, 2, [&](size_t shard, size_t, size_t) {
    const std::vector<Var> mine = model.Shard(shard).Parameters();
    const std::vector<Var> master = model.master->Parameters();
    for (size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(std::memcmp(mine[i]->value.data(), master[i]->value.data(),
                            mine[i]->value.size() * sizeof(float)),
                0)
          << "shard " << shard << " parameter " << i;
    }
  });
}

TEST(DataParallelGradsTest, EmptyBatchZeroesTheGradients) {
  const auto walks = MakeWalks(5);
  ShardedModel model(2);
  model.Run(walks, 2);
  model.grads->Accumulate(0, 2, [](size_t, size_t, size_t) { FAIL(); });
  for (const auto& grad : Grads(*model.master)) {
    for (float g : grad) EXPECT_EQ(g, 0.0f);
  }
}

TEST(DataParallelGradsDeathTest, RejectsMismatchedReplica) {
  std::unique_ptr<TransformerLM> master = MakeModel(1);
  TransformerConfig other = SmallConfig();
  other.vocab_size = 24;
  Rng rng(2);
  TransformerLM replica(other, rng);
  EXPECT_DEATH(DataParallelGrads(master->Parameters(),
                                 {replica.Parameters()}),
               "does not mirror");
}

}  // namespace
}  // namespace fairgen::nn
