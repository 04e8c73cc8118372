// Tests for the accumulator run merge and the multi-threaded generation
// path.

#include <atomic>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "generators/netgan.h"

namespace fairgen {
namespace {

TEST(AccumulatorMergeTest, SumsScores) {
  EdgeScoreAccumulator a(4);
  a.AddEdge(0, 1, 2.0);
  a.AddEdge(1, 2, 1.0);
  EdgeScoreAccumulator b(4);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(2, 3, 5.0);
  const EdgeScoreAccumulator merged = EdgeScoreAccumulator::MergeRuns({a, b});
  EXPECT_EQ(merged.num_scored_edges(), 3u);
  EXPECT_NEAR(merged.total_score(), 11.0, 1e-12);
  const std::vector<std::pair<Edge, double>> expected{
      {{0, 1}, 5.0}, {{1, 2}, 1.0}, {{2, 3}, 5.0}};
  EXPECT_EQ(merged.ScoredEdges(), expected);
}

TEST(AccumulatorMergeTest, MergeEmptyIsNoOp) {
  EdgeScoreAccumulator a(3);
  a.AddEdge(0, 1);
  EdgeScoreAccumulator b(3);
  const EdgeScoreAccumulator merged = EdgeScoreAccumulator::MergeRuns({a, b});
  EXPECT_EQ(merged.num_scored_edges(), 1u);
  EXPECT_NEAR(merged.total_score(), 1.0, 1e-12);
}

TEST(AccumulatorMergeDeathTest, NodeCountMismatch) {
  EdgeScoreAccumulator a(3);
  EdgeScoreAccumulator b(4);
  EXPECT_DEATH(EdgeScoreAccumulator::MergeRuns({a, b}), "");
}

TEST(AccumulateWalkScoresTest, SingleNodeWalksStillTerminate) {
  // Regression: walks of length 1 contribute 0 transitions, so the old
  // `transitions += walk.size() - 1` accounting never advanced and the
  // sampling loop spun forever. The accumulator must guarantee forward
  // progress even when every walk is degenerate.
  for (uint32_t threads : {1u, 2u, 4u}) {
    std::atomic<size_t> walks_sampled{0};
    Rng rng(5);
    EdgeScoreAccumulator acc = AccumulateWalkScores(
        /*num_nodes=*/8, /*target_transitions=*/1000, threads, rng,
        [&](Rng& walk_rng) {
          ++walks_sampled;
          return Walk{static_cast<NodeId>(walk_rng.NextU32() % 8)};
        });
    EXPECT_EQ(acc.num_scored_edges(), 0u);
    EXPECT_GT(walks_sampled.load(), 0u);
    // Each degenerate walk is charged one unit of budget, so the loop
    // samples at most `target` walks instead of spinning.
    EXPECT_LE(walks_sampled.load(), 1000u);
  }
}

TEST(AccumulateWalkScoresTest, BudgetIsHonoredExactlyAcrossThreadCounts) {
  // Regression: the old threaded path gave every worker
  // ceil(target / threads) transitions, overshooting the budget by up to
  // (threads - 1) walks' worth. With single-transition walks the total
  // score now equals the requested budget exactly, for any thread count
  // and for targets not divisible by the chunk count.
  for (uint64_t target : {1ull, 63ull, 64ull, 1001ull, 4096ull}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      Rng rng(9);
      EdgeScoreAccumulator acc = AccumulateWalkScores(
          /*num_nodes=*/16, target, threads, rng, [](Rng& walk_rng) {
            NodeId u = static_cast<NodeId>(walk_rng.NextU32() % 16);
            NodeId v = static_cast<NodeId>((u + 1 +
                                            walk_rng.NextU32() % 15) %
                                           16);
            return Walk{u, v};
          });
      EXPECT_NEAR(acc.total_score(), static_cast<double>(target), 1e-9)
          << "target " << target << ", " << threads << " threads";
    }
  }
}

// The merged runs: key-ascending scores and one total, with the same
// bits and order at every thread count. Walks of 1 to 9 nodes with
// repeats, so keys recur within and across chunks and the last walk of
// a chunk overshoots its budget.
TEST(AccumulateWalkScoresTest, KeyAscendingAndIdenticalAcrossThreadCounts) {
  const uint32_t n = 40;
  std::vector<std::pair<Edge, double>> reference;
  double reference_total = 0.0;
  for (uint32_t threads : {1u, 2u, 4u}) {
    Rng rng(21);
    const EdgeScoreAccumulator acc = AccumulateWalkScores(
        n, /*target_transitions=*/5000, threads, rng, [](Rng& walk_rng) {
          Walk walk{static_cast<NodeId>(walk_rng.UniformU32(n))};
          const uint32_t length = 1 + walk_rng.UniformU32(9);
          while (walk.size() < length) {
            walk.push_back(static_cast<NodeId>(walk_rng.UniformU32(n)));
          }
          return walk;
        });
    const std::vector<std::pair<Edge, double>> scored = acc.ScoredEdges();
    ASSERT_FALSE(scored.empty());
    for (size_t i = 1; i < scored.size(); ++i) {
      const auto& [a, b] = std::pair(scored[i - 1].first, scored[i].first);
      EXPECT_TRUE(a.u < b.u || (a.u == b.u && a.v < b.v)) << "index " << i;
    }
    if (threads == 1) {
      reference = scored;
      reference_total = acc.total_score();
    } else {
      EXPECT_EQ(scored, reference) << threads << " threads";
      EXPECT_EQ(acc.total_score(), reference_total) << threads << " threads";
    }
  }
}

TEST(AccumulateWalkScoresTest, ZeroBudgetSamplesNothing) {
  std::atomic<size_t> walks_sampled{0};
  Rng rng(3);
  EdgeScoreAccumulator acc = AccumulateWalkScores(
      /*num_nodes=*/4, /*target_transitions=*/0, 4, rng, [&](Rng&) {
        ++walks_sampled;
        return Walk{0, 1};
      });
  EXPECT_EQ(walks_sampled.load(), 0u);
  EXPECT_EQ(acc.num_scored_edges(), 0u);
}

TEST(ParallelGenerationTest, MultiThreadedGenerateIsValid) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_edges = 300;
  Rng rng(1);
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());

  NetGanConfig netgan;
  netgan.train.num_walks = 60;
  netgan.train.epochs = 1;
  netgan.train.gen_transition_multiplier = 4.0;
  netgan.train.num_threads = 4;
  netgan.dim = 12;
  netgan.hidden_dim = 12;
  NetGanGenerator gen(netgan);
  ASSERT_TRUE(gen.Fit(data->graph, rng).ok());
  auto out = gen.Generate(rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_nodes(), 60u);
  EXPECT_GT(out->num_edges(), 100u);
  EXPECT_LE(out->num_edges(), 300u);
}

TEST(ParallelGenerationTest, ThreadCountDoesNotBiasEdgeMass) {
  // Sequential and 4-thread generation should accumulate a similar number
  // of scored candidate edges (same transition budget).
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_edges = 250;
  Rng rng(2);
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());

  auto run = [&](uint32_t threads) {
    NetGanConfig netgan;
    netgan.train.num_walks = 40;
    netgan.train.epochs = 1;
    netgan.train.gen_transition_multiplier = 6.0;
    netgan.train.num_threads = threads;
    netgan.dim = 12;
    netgan.hidden_dim = 12;
    NetGanGenerator gen(netgan);
    Rng fit_rng(7);
    EXPECT_TRUE(gen.Fit(data->graph, fit_rng).ok());
    Rng gen_rng(8);
    auto scored = gen.ScoreEdges(gen_rng);
    EXPECT_TRUE(scored.ok());
    double total = 0.0;
    for (const auto& [edge, score] : *scored) total += score;
    return total;
  };
  double seq = run(1);
  double par = run(4);
  EXPECT_NEAR(par, seq, 0.05 * seq + 40.0);
}

}  // namespace
}  // namespace fairgen
