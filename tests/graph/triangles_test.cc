#include "graph/triangles.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

#include "generators/er.h"
#include "rng/rng.h"

namespace fairgen {
namespace {

TEST(TrianglesTest, SingleTriangle) {
  auto g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountTriangles(*g), 1u);
}

TEST(TrianglesTest, PathHasNoTriangles) {
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountTriangles(*g), 0u);
}

TEST(TrianglesTest, CompleteGraphK5) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) edges.push_back({u, v});
  }
  auto g = Graph::FromEdges(5, edges);
  ASSERT_TRUE(g.ok());
  // C(5,3) = 10.
  EXPECT_EQ(CountTriangles(*g), 10u);
}

TEST(TrianglesTest, BipartiteHasNoTriangles) {
  // Complete bipartite K_{3,3}.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 3; ++u) {
    for (NodeId v = 3; v < 6; ++v) edges.push_back({u, v});
  }
  auto g = Graph::FromEdges(6, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountTriangles(*g), 0u);
}

TEST(TrianglesTest, TwoSharedEdgeTriangles) {
  // Diamond: 0-1-2-0 and 0-2-3-0 share the edge 0-2.
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountTriangles(*g), 2u);
}

TEST(TrianglesTest, EmptyGraph) {
  EXPECT_EQ(CountTriangles(Graph::Empty(10)), 0u);
}

// Brute-force reference.
uint64_t TrianglesBrute(const Graph& g) {
  uint64_t count = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) continue;
      for (NodeId w = v + 1; w < g.num_nodes(); ++w) {
        if (g.HasEdge(u, w) && g.HasEdge(v, w)) ++count;
      }
    }
  }
  return count;
}

class TriangleRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TriangleRandomTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(GetParam());
  auto g = SampleErdosRenyi(40, 120, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountTriangles(*g), TrianglesBrute(*g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleRandomTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Runs CountTriangles at 1, 2 and 4 threads and checks each count
// against the brute-force reference.
void ExpectCountMatchesBruteAtThreadCounts(const Graph& g,
                                           const std::string& what) {
  const uint64_t expected = TrianglesBrute(g);
  const uint32_t saved = DefaultNumThreads();
  for (uint32_t threads : {1u, 2u, 4u}) {
    SetDefaultNumThreads(threads);
    EXPECT_EQ(CountTriangles(g), expected)
        << what << " at " << threads << " threads";
  }
  SetDefaultNumThreads(saved);
}

// Graphs of more than one 256-node chunk: ER at three densities, and a
// hub adjacent to every node plus a 20-clique, where (degree, id) ranks
// orient most edges away from the hub and the clique's ties break by id.
TEST(TrianglesTest, OrientedCountMatchesBruteForceAcrossThreads) {
  Rng rng(31);
  for (uint64_t edges : {300ull, 2000ull, 15000ull}) {
    auto g = SampleErdosRenyi(600, edges, rng);
    ASSERT_TRUE(g.ok());
    ExpectCountMatchesBruteAtThreadCounts(*g,
                                          "ER m=" + std::to_string(edges));
  }
  std::vector<Edge> hub_clique;
  for (NodeId v = 1; v < 600; ++v) hub_clique.push_back({0, v});
  for (NodeId u = 300; u < 320; ++u) {
    for (NodeId v = u + 1; v < 320; ++v) hub_clique.push_back({u, v});
  }
  for (NodeId v = 1; v + 1 < 600; v += 7) hub_clique.push_back({v, v + 1});
  auto hub = Graph::FromEdges(600, hub_clique);
  ASSERT_TRUE(hub.ok());
  ExpectCountMatchesBruteAtThreadCounts(*hub, "hub plus clique");
  ExpectCountMatchesBruteAtThreadCounts(Graph::Empty(0), "no nodes");
  ExpectCountMatchesBruteAtThreadCounts(Graph::Empty(700), "no edges");
  auto single = Graph::FromEdges(2, {{1, 0}});
  ASSERT_TRUE(single.ok());
  ExpectCountMatchesBruteAtThreadCounts(*single, "single edge");
}

TEST(PerNodeTrianglesTest, SumsToThreeTimesTriangles) {
  Rng rng(17);
  auto g = SampleErdosRenyi(50, 200, rng);
  ASSERT_TRUE(g.ok());
  std::vector<uint64_t> per_node = PerNodeTriangles(*g);
  uint64_t total = 0;
  for (uint64_t t : per_node) total += t;
  EXPECT_EQ(total, 3 * CountTriangles(*g));
}

TEST(PerNodeTrianglesTest, CornerCounts) {
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  std::vector<uint64_t> per_node = PerNodeTriangles(*g);
  EXPECT_EQ(per_node, (std::vector<uint64_t>{1, 1, 1, 0}));
}

}  // namespace
}  // namespace fairgen
