#include "generators/generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "generators/assembler.h"
#include "rng/rng.h"

namespace fairgen {
namespace {

TEST(EdgeScoreAccumulatorTest, CountsWalkTransitions) {
  EdgeScoreAccumulator acc(5);
  acc.AddWalk({0, 1, 2, 1});
  // Transitions: 0-1, 1-2, 2-1 => edge {1,2} counted twice.
  EXPECT_EQ(acc.num_scored_edges(), 2u);
  EXPECT_NEAR(acc.total_score(), 3.0, 1e-12);
}

TEST(EdgeScoreAccumulatorTest, IgnoresSelfTransitions) {
  EdgeScoreAccumulator acc(3);
  acc.AddWalk({0, 0, 0, 1});
  EXPECT_EQ(acc.num_scored_edges(), 1u);
  EXPECT_NEAR(acc.total_score(), 1.0, 1e-12);
}

TEST(EdgeScoreAccumulatorTest, OrientationNormalized) {
  EdgeScoreAccumulator acc(4);
  acc.AddEdge(2, 1);
  acc.AddEdge(1, 2);
  EXPECT_EQ(acc.num_scored_edges(), 1u);
  auto scored = acc.ScoredEdges();
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].first.u, 1u);
  EXPECT_EQ(scored[0].first.v, 2u);
  EXPECT_NEAR(scored[0].second, 2.0, 1e-12);
}

TEST(EdgeScoreAccumulatorTest, SelfEdgeIgnored) {
  EdgeScoreAccumulator acc(3);
  acc.AddEdge(1, 1);
  EXPECT_EQ(acc.num_scored_edges(), 0u);
}

// Thresholds `acc` the way the baselines release: the assembler with
// both criteria off, whose edge budget is `original`'s edge count.
Result<Graph> ReleaseTopM(const EdgeScoreAccumulator& acc,
                          const std::vector<Edge>& original_edges) {
  auto original = Graph::FromEdges(acc.num_nodes(), original_edges);
  if (!original.ok()) return original.status();
  Rng rng(1);
  return AssembleFairGraph(acc, *original, {},
                           AssemblerCriteria{false, false}, rng);
}

TEST(EdgeScoreAccumulatorTest, TopMKeepsHighestScores) {
  EdgeScoreAccumulator acc(5);
  acc.AddEdge(0, 1, 10.0);
  acc.AddEdge(1, 2, 5.0);
  acc.AddEdge(2, 3, 1.0);
  auto g = ReleaseTopM(acc, {{0, 4}, {3, 4}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_FALSE(g->HasEdge(2, 3));
}

TEST(EdgeScoreAccumulatorTest, BuildWithFewerCandidatesThanTarget) {
  EdgeScoreAccumulator acc(4);
  acc.AddEdge(0, 1);
  // A budget of 6 edges (K4) against one candidate.
  auto g = ReleaseTopM(acc, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(EdgeScoreAccumulatorTest, TieBreakIsDeterministic) {
  EdgeScoreAccumulator a(5);
  EdgeScoreAccumulator b(5);
  for (auto* acc : {&a, &b}) {
    acc->AddEdge(3, 4, 1.0);
    acc->AddEdge(0, 1, 1.0);
    acc->AddEdge(1, 2, 1.0);
  }
  auto ga = ReleaseTopM(a, {{0, 4}, {2, 3}});
  auto gb = ReleaseTopM(b, {{0, 4}, {2, 3}});
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->ToEdgeList(), gb->ToEdgeList());
  // Lowest edge key wins ties.
  EXPECT_TRUE(ga->HasEdge(0, 1));
  EXPECT_TRUE(ga->HasEdge(1, 2));
}

// Random observations over a few keys, with non-integer counts whose
// sum depends on the order they are added in.
std::vector<std::pair<Edge, double>> RandomObservations(uint32_t n,
                                                       size_t count,
                                                       Rng& rng) {
  std::vector<std::pair<Edge, double>> out;
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = rng.UniformU32(n);
    NodeId v = rng.UniformU32(n);
    if (v == u) v = (u + 1) % n;
    const int exponent = static_cast<int>(rng.UniformU32(40)) - 20;
    out.push_back({{u, v}, std::ldexp(rng.UniformDouble() + 0.1, exponent)});
  }
  return out;
}

uint64_t Key(const Edge& e, uint32_t n) {
  return static_cast<uint64_t>(std::min(e.u, e.v)) * n + std::max(e.u, e.v);
}

// The reference: one `+=` per observation in insertion order, as a hash
// map of scores computes it. A std::map also yields the keys ascending.
std::map<uint64_t, double> InsertionOrderSums(
    const std::vector<std::pair<Edge, double>>& observations, uint32_t n) {
  std::map<uint64_t, double> sums;
  for (const auto& [edge, count] : observations) {
    sums[Key(edge, n)] += count;
  }
  return sums;
}

std::vector<std::pair<Edge, double>> AsScoredEdges(
    const std::map<uint64_t, double>& sums, uint32_t n) {
  std::vector<std::pair<Edge, double>> out;
  for (const auto& [key, score] : sums) {
    out.push_back({{static_cast<NodeId>(key / n), static_cast<NodeId>(key % n)},
                   score});
  }
  return out;
}

TEST(EdgeScoreAccumulatorTest, SumsEachKeyInInsertionOrder) {
  const uint32_t n = 9;
  Rng rng(3);
  const auto observations = RandomObservations(n, 2000, rng);
  EdgeScoreAccumulator acc(n);
  for (const auto& [edge, count] : observations) {
    acc.AddEdge(edge.u, edge.v, count);
  }
  const auto expected = AsScoredEdges(InsertionOrderSums(observations, n), n);
  // The same bits from the compacted copy a const reader makes and from
  // the compacted accumulator.
  EXPECT_EQ(acc.ScoredEdges(), expected);
  EXPECT_EQ(acc.num_scored_edges(), expected.size());
  acc.Compact();
  EXPECT_EQ(acc.ScoredEdges(), expected);
  EXPECT_EQ(acc.num_scored_edges(), expected.size());

  // The test has teeth: summing in reverse changes some key's bits.
  auto reversed = observations;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_NE(AsScoredEdges(InsertionOrderSums(reversed, n), n), expected);
}

TEST(EdgeScoreAccumulatorTest, ScoredEdgesAreKeyAscending) {
  EdgeScoreAccumulator acc(6);
  acc.AddWalk({5, 4, 0, 3, 1, 2, 0, 5, 2});
  const auto scored = acc.ScoredEdges();
  ASSERT_EQ(scored.size(), 8u);
  for (size_t i = 0; i < scored.size(); ++i) {
    EXPECT_LT(scored[i].first.u, scored[i].first.v);
    if (i > 0) {
      EXPECT_LT(Key(scored[i - 1].first, 6), Key(scored[i].first, 6));
    }
  }
}

// Repeated keys across runs with non-integer counts: each run sums its
// observations in insertion order, and the merge adds the run sums in
// run order, starting from 0.0 — the order of the per-chunk hash maps
// folded into one map chunk by chunk.
TEST(EdgeScoreAccumulatorTest, MergeRunsSumsRunsInRunOrder) {
  const uint32_t n = 7;
  Rng rng(4);
  std::vector<EdgeScoreAccumulator> runs;
  std::map<uint64_t, double> expected;
  double expected_total = 0.0;
  for (size_t r = 0; r < 9; ++r) {
    const auto observations = RandomObservations(n, 50 + 30 * r, rng);
    runs.emplace_back(n);
    double run_total = 0.0;
    for (const auto& [edge, count] : observations) {
      runs.back().AddEdge(edge.u, edge.v, count);
      run_total += count;
    }
    for (const auto& [key, score] : InsertionOrderSums(observations, n)) {
      expected[key] += score;
    }
    expected_total += run_total;
  }
  // One run left empty, one compacted before the merge.
  runs.emplace_back(n);
  runs[2].Compact();
  const EdgeScoreAccumulator merged =
      EdgeScoreAccumulator::MergeRuns(std::move(runs));
  EXPECT_EQ(merged.ScoredEdges(), AsScoredEdges(expected, n));
  EXPECT_EQ(merged.total_score(), expected_total);
}

TEST(EdgeScoreAccumulatorDeathTest, OutOfRangeNode) {
  EdgeScoreAccumulator acc(3);
  EXPECT_DEATH(acc.AddEdge(0, 5), "");
}

}  // namespace
}  // namespace fairgen
