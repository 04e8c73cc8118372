#include "stats/discrepancy.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "generators/er.h"
#include "rng/rng.h"

namespace fairgen {
namespace {

TEST(MetricDiscrepancyTest, RelativeError) {
  EXPECT_NEAR(MetricDiscrepancy(10.0, 8.0), 0.2, 1e-12);
  EXPECT_NEAR(MetricDiscrepancy(10.0, 12.0), 0.2, 1e-12);
  EXPECT_EQ(MetricDiscrepancy(5.0, 5.0), 0.0);
}

TEST(MetricDiscrepancyTest, NegativeOriginalUsesAbsoluteValue) {
  EXPECT_NEAR(MetricDiscrepancy(-2.0, -1.0), 0.5, 1e-12);
}

// f(G) = 0: 0 on a match, 1 on any other value, whatever its size.
TEST(MetricDiscrepancyTest, ZeroOriginalIsZeroOrOne) {
  EXPECT_EQ(MetricDiscrepancy(0.0, 0.0), 0.0);
  EXPECT_EQ(MetricDiscrepancy(0.0, -0.0), 0.0);
  EXPECT_EQ(MetricDiscrepancy(-0.0, 0.0), 0.0);
  EXPECT_EQ(MetricDiscrepancy(0.0, 3.0), 1.0);
  EXPECT_EQ(MetricDiscrepancy(0.0, -2.5), 1.0);
  EXPECT_EQ(MetricDiscrepancy(0.0, 1e-300), 1.0);
  EXPECT_EQ(MetricDiscrepancy(0.0, 43.0), 1.0);
  // A nonzero f(G) keeps the relative error, bit for bit.
  EXPECT_EQ(MetricDiscrepancy(4.0, 1.0), 0.75);
  EXPECT_EQ(MetricDiscrepancy(0.5, 43.0), 85.0);
}

// A triangle-free input against a release with triangles: the
// TriangleCount term of R is 1, not the release's triangle count.
TEST(OverallDiscrepancyTest, TriangleFreeInputScoresTriangleTermAsOne) {
  // A 6-cycle, and the same cycle with the chords {0,2} and {3,5}.
  auto cycle = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  auto chorded = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}, {3, 5}});
  ASSERT_TRUE(cycle.ok());
  ASSERT_TRUE(chorded.ok());
  auto disc = OverallDiscrepancy(*cycle, *chorded);
  ASSERT_TRUE(disc.ok());
  const size_t triangles = static_cast<size_t>(
      std::find(MetricNames().begin(), MetricNames().end(), "TriangleCount") -
      MetricNames().begin());
  ASSERT_LT(triangles, kNumGraphMetrics);
  EXPECT_EQ((*disc)[triangles], 1.0);
  // The other terms keep the relative error, e.g. average degree 2 → 8/3.
  EXPECT_EQ((*disc)[0], MetricDiscrepancy(2.0, 16.0 / 6.0));
}

TEST(OverallDiscrepancyTest, IdenticalGraphsGiveZero) {
  Rng rng(3);
  auto g = SampleErdosRenyi(60, 150, rng);
  ASSERT_TRUE(g.ok());
  auto disc = OverallDiscrepancy(*g, *g);
  ASSERT_TRUE(disc.ok());
  for (double d : *disc) EXPECT_EQ(d, 0.0);
}

TEST(OverallDiscrepancyTest, NodeCountMismatchRejected) {
  auto a = Graph::FromEdges(3, {{0, 1}});
  auto b = Graph::FromEdges(4, {{0, 1}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(OverallDiscrepancy(*a, *b).ok());
}

TEST(OverallDiscrepancyTest, DetectsEdgeCountDifference) {
  auto a = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  auto b = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto disc = OverallDiscrepancy(*a, *b);
  ASSERT_TRUE(disc.ok());
  // Average degree halves: relative error 0.5.
  EXPECT_NEAR((*disc)[0], 0.5, 1e-12);
}

TEST(ProtectedDiscrepancyTest, MeasuresInducedSubgraphs) {
  // Original: protected {0,1,2} forms a triangle. Generated: same node
  // set, but the protected triangle is destroyed.
  auto original =
      Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {2, 3}});
  auto generated =
      Graph::FromEdges(5, {{0, 3}, {1, 4}, {2, 3}, {3, 4}, {0, 4}});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(generated.ok());
  auto disc = ProtectedDiscrepancy(*original, *generated, {0, 1, 2});
  ASSERT_TRUE(disc.ok());
  // Induced protected subgraph went from triangle (avg degree 2) to empty
  // (avg degree 0): relative error 1.
  EXPECT_NEAR((*disc)[0], 1.0, 1e-12);
  // Triangle count 1 -> 0.
  EXPECT_NEAR((*disc)[2], 1.0, 1e-12);
}

TEST(ProtectedDiscrepancyTest, PerfectProtectedPreservationIsZero) {
  auto original =
      Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {2, 3}});
  // Same protected triangle, different majority edges.
  auto generated =
      Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {1, 4}});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(generated.ok());
  auto disc = ProtectedDiscrepancy(*original, *generated, {0, 1, 2});
  ASSERT_TRUE(disc.ok());
  for (double d : *disc) EXPECT_EQ(d, 0.0);
}

TEST(ProtectedDiscrepancyTest, EmptyProtectedSetRejected) {
  auto g = Graph::FromEdges(3, {{0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(ProtectedDiscrepancy(*g, *g, {}).ok());
}

TEST(MeanDiscrepancyTest, Averages) {
  std::array<double, kNumGraphMetrics> v{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(MeanDiscrepancy(v), 2.5, 1e-12);
}

TEST(DiscrepancyIntegrationTest, ERGeneratorDestroysTriangles) {
  // The classic observation behind Fig. 4: ER matches average degree
  // exactly (same m) but cannot reproduce triangle counts of a clustered
  // graph.
  Rng rng(13);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 200;
  cfg.num_edges = 1400;
  cfg.num_classes = 4;
  cfg.intra_class_affinity = 10.0;
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());
  ErdosRenyiGenerator er;
  ASSERT_TRUE(er.Fit(data->graph, rng).ok());
  auto generated = er.Generate(rng);
  ASSERT_TRUE(generated.ok());
  auto disc = OverallDiscrepancy(data->graph, *generated);
  ASSERT_TRUE(disc.ok());
  EXPECT_LT((*disc)[0], 1e-9);  // average degree matched exactly
  EXPECT_GT((*disc)[2], 0.4);   // triangles not preserved
}

}  // namespace
}  // namespace fairgen
