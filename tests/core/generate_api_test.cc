// Tests for the generation-side APIs added on top of Algorithm 1:
// ScoreEdges (candidate scoring for augmentation) and
// GenerateWithCriteria (assembler ablation).

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "generators/er.h"
#include "generators/netgan.h"
#include "graph/subgraph.h"
#include "stats/discrepancy.h"
#include "testing/top_m_oracle.h"

namespace fairgen {
namespace {

struct Fixture {
  LabeledGraph data;
  FairGenTrainer trainer;

  explicit Fixture(uint64_t seed) : data(MakeData(seed)), trainer(Config()) {
    Rng rng(seed);
    std::vector<int32_t> few = FewShotLabels(data, 4, rng);
    EXPECT_TRUE(trainer
                    .SetSupervision(few, data.protected_set,
                                    data.num_classes)
                    .ok());
    EXPECT_TRUE(trainer.Fit(data.graph, rng).ok());
  }

  static FairGenConfig Config() {
    FairGenConfig cfg;
    cfg.num_walks = 80;
    cfg.self_paced_cycles = 2;
    cfg.generator_epochs = 1;
    cfg.embedding_dim = 16;
    cfg.ffn_dim = 24;
    cfg.gen_transition_multiplier = 3.0;
    return cfg;
  }

  static LabeledGraph MakeData(uint64_t seed) {
    SyntheticGraphConfig cfg;
    cfg.num_nodes = 100;
    cfg.num_edges = 500;
    cfg.num_classes = 3;
    cfg.protected_size = 15;
    Rng rng(seed);
    auto data = GenerateSynthetic(cfg, rng);
    EXPECT_TRUE(data.ok());
    return data.MoveValueUnsafe();
  }
};

TEST(ScoreEdgesTest, DefaultIsNotImplemented) {
  ErdosRenyiGenerator er;
  Rng rng(1);
  auto scored = er.ScoreEdges(rng);
  EXPECT_FALSE(scored.ok());
  EXPECT_TRUE(scored.status().IsNotImplemented());
}

TEST(ScoreEdgesTest, FairGenRequiresFit) {
  FairGenTrainer trainer(Fixture::Config());
  Rng rng(2);
  EXPECT_TRUE(trainer.ScoreEdges(rng).status().IsFailedPrecondition());
}

TEST(ScoreEdgesTest, FairGenProducesPositiveScores) {
  Fixture f(3);
  Rng rng(3);
  auto scored = f.trainer.ScoreEdges(rng);
  ASSERT_TRUE(scored.ok());
  EXPECT_GT(scored->size(), 50u);
  for (const auto& [edge, score] : *scored) {
    EXPECT_LT(edge.u, edge.v);
    EXPECT_LT(edge.v, f.data.graph.num_nodes());
    EXPECT_GT(score, 0.0);
  }
}

TEST(ScoreEdgesTest, NetGanProducesScores) {
  Fixture f(4);
  NetGanConfig cfg;
  cfg.train.num_walks = 50;
  cfg.train.epochs = 1;
  cfg.train.gen_transition_multiplier = 2.0;
  cfg.dim = 12;
  cfg.hidden_dim = 12;
  NetGanGenerator gen(cfg);
  Rng rng(4);
  ASSERT_TRUE(gen.Fit(f.data.graph, rng).ok());
  auto scored = gen.ScoreEdges(rng);
  ASSERT_TRUE(scored.ok());
  EXPECT_GT(scored->size(), 10u);
}

TEST(GenerateWithCriteriaTest, NoneMatchesTopMThresholding) {
  Fixture f(5);
  // Identical RNG state -> identical sampled walks -> with all criteria
  // off, assembly must coincide with plain top-m.
  Rng rng_a(42);
  Rng rng_b(42);
  AssemblerCriteria none{false, false};
  auto via_criteria = f.trainer.GenerateWithCriteria(none, rng_a);
  ASSERT_TRUE(via_criteria.ok());
  auto scored = f.trainer.ScoreEdges(rng_b);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(via_criteria->ToEdgeList(),
            TopMGraph(*scored, f.data.graph.num_nodes(),
                      f.data.graph.num_edges())
                .ToEdgeList());
}

TEST(GenerateWithCriteriaTest, VolumeCriterionImprovesProtectedVolume) {
  Fixture f(6);
  Rng rng_a(9);
  Rng rng_b(9);
  auto with_volume =
      f.trainer.GenerateWithCriteria({true, false}, rng_a);
  auto without =
      f.trainer.GenerateWithCriteria({false, false}, rng_b);
  ASSERT_TRUE(with_volume.ok());
  ASSERT_TRUE(without.ok());
  uint64_t target = f.data.graph.Volume(f.data.protected_set);
  uint64_t vol_with = with_volume->Volume(f.data.protected_set);
  uint64_t vol_without = without->Volume(f.data.protected_set);
  // The criterion can only move the volume towards (or past) the target.
  EXPECT_GE(vol_with, vol_without);
  // Sane magnitude only: phase C fills the edge budget with no volume cap,
  // so the overshoot past the target is stochastic (seed-dependent).
  EXPECT_LE(vol_with <= target ? target - vol_with : vol_with - target,
            2 * target);
}

TEST(GenerateWithCriteriaTest, CoverageCriterionFixesIsolatedNodes) {
  Fixture f(7);
  Rng rng_a(11);
  Rng rng_b(11);
  auto with_coverage =
      f.trainer.GenerateWithCriteria({false, true}, rng_a);
  auto without =
      f.trainer.GenerateWithCriteria({false, false}, rng_b);
  ASSERT_TRUE(with_coverage.ok());
  ASSERT_TRUE(without.ok());
  uint32_t isolated_with = 0;
  uint32_t isolated_without = 0;
  for (NodeId v = 0; v < f.data.graph.num_nodes(); ++v) {
    if (f.data.graph.Degree(v) == 0) continue;
    if (with_coverage->Degree(v) == 0) ++isolated_with;
    if (without->Degree(v) == 0) ++isolated_without;
  }
  EXPECT_EQ(isolated_with, 0u);
  EXPECT_GE(isolated_without, isolated_with);
}

class AssemblerCriteriaSweep
    : public testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(AssemblerCriteriaSweep, AlwaysMatchesEdgeBudgetAndNodeSet) {
  auto [volume, coverage] = GetParam();
  Fixture f(20 + (volume ? 1 : 0) + (coverage ? 2 : 0));
  Rng rng(13);
  auto generated =
      f.trainer.GenerateWithCriteria({volume, coverage}, rng);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(generated->num_nodes(), f.data.graph.num_nodes());
  EXPECT_LE(generated->num_edges(), f.data.graph.num_edges());
  EXPECT_GE(generated->num_edges(), f.data.graph.num_edges() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Criteria, AssemblerCriteriaSweep,
    testing::Combine(testing::Bool(), testing::Bool()));

}  // namespace
}  // namespace fairgen
