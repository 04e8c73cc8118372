#include "generators/assembler.h"

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "generators/gae.h"
#include "generators/netgan.h"
#include "generators/taggen.h"
#include "graph/subgraph.h"
#include "testing/top_m_oracle.h"
#include "walk/random_walk.h"

namespace fairgen {
namespace {

// A small labeled graph plus an accumulator filled with real-walk counts —
// a realistic high-quality score matrix.
struct Fixture {
  LabeledGraph data;
  EdgeScoreAccumulator acc;

  explicit Fixture(uint64_t seed, uint32_t walks = 3000)
      : data(MakeData(seed)), acc(data.graph.num_nodes()) {
    Rng rng(seed ^ 0xabc);
    RandomWalker walker(data.graph);
    for (uint32_t i = 0; i < walks; ++i) {
      acc.AddWalk(walker.UniformWalk(walker.SampleStartNode(rng), 8, rng));
    }
  }

  static LabeledGraph MakeData(uint64_t seed) {
    SyntheticGraphConfig cfg;
    cfg.num_nodes = 120;
    cfg.num_edges = 700;
    cfg.num_classes = 3;
    cfg.protected_size = 20;
    Rng rng(seed);
    auto data = GenerateSynthetic(cfg, rng);
    EXPECT_TRUE(data.ok());
    return data.MoveValueUnsafe();
  }
};

TEST(AssemblerTest, MatchesEdgeBudget) {
  Fixture f(1);
  Rng rng(1);
  AssemblyReport report;
  auto g = AssembleFairGraph(f.acc, f.data.graph, f.data.protected_set, {},
                             rng, &report);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), f.data.graph.num_edges());
  EXPECT_EQ(report.assembled_edges, f.data.graph.num_edges());
  EXPECT_EQ(report.target_edges, f.data.graph.num_edges());
}

TEST(AssemblerTest, EveryActiveNodeGetsAnEdge) {
  Fixture f(2);
  Rng rng(2);
  auto g = AssembleFairGraph(f.acc, f.data.graph, f.data.protected_set, {},
                             rng);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    if (f.data.graph.Degree(v) > 0) {
      EXPECT_GE(g->Degree(v), 1u) << "node " << v << " left isolated";
    }
  }
}

TEST(AssemblerTest, ProtectedVolumeApproximatelyPreserved) {
  Fixture f(3);
  Rng rng(3);
  AssemblyReport report;
  auto g = AssembleFairGraph(f.acc, f.data.graph, f.data.protected_set, {},
                             rng, &report);
  ASSERT_TRUE(g.ok());
  uint64_t target = f.data.graph.Volume(f.data.protected_set);
  uint64_t achieved = g->Volume(f.data.protected_set);
  EXPECT_EQ(report.protected_volume_target, target);
  // The greedy phases should reach at least 60% of the target volume with
  // a real-walk score matrix (and not overshoot absurdly).
  EXPECT_GE(achieved, target * 6 / 10);
  EXPECT_LE(achieved, target * 2);
}

TEST(AssemblerTest, CriteriaCanBeDisabled) {
  Fixture f(4);
  Rng rng(4);
  AssemblerCriteria off;
  off.preserve_protected_volume = false;
  off.ensure_min_degree = false;
  AssemblyReport report;
  auto g = AssembleFairGraph(f.acc, f.data.graph, f.data.protected_set, off,
                             rng, &report);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(report.isolated_nodes_fixed, 0u);
  EXPECT_EQ(report.protected_volume_target, 0u);
  // Without criteria this must match plain top-m thresholding.
  EXPECT_EQ(g->ToEdgeList(),
            TopMGraph(f.acc.ScoredEdges(), f.data.graph.num_nodes(),
                      f.data.graph.num_edges())
                .ToEdgeList());
}

TEST(AssemblerTest, IsolatedInOriginalStaysIsolated) {
  // Node with degree 0 in G gets no coverage edge.
  auto g_in = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g_in.ok());
  EdgeScoreAccumulator acc(4);
  acc.AddEdge(0, 1, 5.0);
  acc.AddEdge(1, 2, 4.0);
  Rng rng(5);
  auto g = AssembleFairGraph(acc, *g_in, {}, {}, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Degree(3), 0u);
}

TEST(AssemblerTest, UnvisitedNodeGetsFallbackEdge) {
  // Node 3 has degree > 0 in G but no scored candidate at all.
  auto g_in = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g_in.ok());
  EdgeScoreAccumulator acc(4);
  acc.AddEdge(0, 1, 5.0);
  acc.AddEdge(1, 2, 4.0);
  acc.AddEdge(0, 2, 3.0);
  Rng rng(6);
  AssemblyReport report;
  auto g = AssembleFairGraph(acc, *g_in, {}, {}, rng, &report);
  ASSERT_TRUE(g.ok());
  EXPECT_GE(g->Degree(3), 1u);
  EXPECT_EQ(report.fallback_edges, 1u);
}

TEST(AssemblerTest, NodeCountMismatchRejected) {
  auto g_in = Graph::FromEdges(4, {{0, 1}});
  ASSERT_TRUE(g_in.ok());
  EdgeScoreAccumulator acc(5);
  Rng rng(7);
  EXPECT_FALSE(AssembleFairGraph(acc, *g_in, {}, {}, rng).ok());
}

TEST(AssemblerTest, ProtectedInternalEdgesPreferred) {
  // Score matrix offers both internal and external protected edges; the
  // assembler must include enough internal ones to match the original's
  // induced count.
  auto g_in = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {2, 3}});  // S+ = {0,1,2}
  ASSERT_TRUE(g_in.ok());
  std::vector<NodeId> protected_set{0, 1, 2};
  EdgeScoreAccumulator acc(6);
  // External candidates score higher, internal lower — without phase B1
  // the internal edges would lose.
  acc.AddEdge(0, 3, 10.0);
  acc.AddEdge(1, 4, 9.0);
  acc.AddEdge(2, 5, 8.0);
  acc.AddEdge(3, 4, 7.0);
  acc.AddEdge(4, 5, 6.5);
  acc.AddEdge(0, 1, 3.0);
  acc.AddEdge(1, 2, 2.0);
  acc.AddEdge(0, 2, 1.0);
  Rng rng(8);
  auto g = AssembleFairGraph(acc, *g_in, protected_set, {}, rng);
  ASSERT_TRUE(g.ok());
  auto sub = InducedSubgraph(*g, protected_set);
  ASSERT_TRUE(sub.ok());
  // Original induced subgraph has 3 edges (the triangle).
  EXPECT_GE(sub->graph.num_edges(), 2u);
}

// Every baseline releases the top m of its own edge scores: Generate and
// ScoreEdges draw the same scores from the same seed, and the release
// must equal plain top-m thresholding of them.
struct BaselineCase {
  std::string name;
  std::function<std::unique_ptr<GraphGenerator>()> make;
};

void PrintTo(const BaselineCase& c, std::ostream* os) { *os << c.name; }

WalkLMTrainConfig QuickWalkBudget() {
  WalkLMTrainConfig cfg;
  cfg.walk_length = 8;
  cfg.num_walks = 60;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.gen_transition_multiplier = 3.0;
  return cfg;
}

GaeConfig QuickGae(bool variational) {
  GaeConfig cfg;
  cfg.feature_dim = 12;
  cfg.hidden_dim = 12;
  cfg.latent_dim = 8;
  cfg.epochs = 10;
  cfg.edges_per_epoch = 128;
  cfg.variational = variational;
  return cfg;
}

class BaselineReleaseTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineReleaseTest, ReleaseIsTopMOfItsScores) {
  SyntheticGraphConfig data_cfg;
  data_cfg.num_nodes = 60;
  data_cfg.num_edges = 300;
  Rng data_rng(21);
  auto data = GenerateSynthetic(data_cfg, data_rng);
  ASSERT_TRUE(data.ok());
  const Graph& graph = data->graph;

  std::unique_ptr<GraphGenerator> gen = GetParam().make();
  Rng fit_rng(22);
  ASSERT_TRUE(gen->Fit(graph, fit_rng).ok());
  for (uint64_t seed : {5u, 6u}) {
    Rng gen_rng(seed);
    Rng score_rng(seed);
    auto released = gen->Generate(gen_rng);
    auto scored = gen->ScoreEdges(score_rng);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    // More candidates than the budget, so the threshold decides.
    EXPECT_GT(scored->size(), graph.num_edges());
    EXPECT_EQ(released->ToEdgeList(),
              TopMGraph(*scored, graph.num_nodes(), graph.num_edges())
                  .ToEdgeList())
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineReleaseTest,
    ::testing::Values(
        BaselineCase{"TagGen",
                     [] {
                       TagGenConfig cfg;
                       cfg.train = QuickWalkBudget();
                       cfg.dim = 16;
                       cfg.num_heads = 2;
                       return std::unique_ptr<GraphGenerator>(
                           new TagGenGenerator(cfg));
                     }},
        BaselineCase{"NetGAN",
                     [] {
                       NetGanConfig cfg;
                       cfg.train = QuickWalkBudget();
                       cfg.dim = 16;
                       cfg.hidden_dim = 16;
                       return std::unique_ptr<GraphGenerator>(
                           new NetGanGenerator(cfg));
                     }},
        BaselineCase{"GAE",
                     [] {
                       return std::unique_ptr<GraphGenerator>(
                           new GaeGenerator(QuickGae(false)));
                     }},
        BaselineCase{"VGAE",
                     [] {
                       return std::unique_ptr<GraphGenerator>(
                           new GaeGenerator(QuickGae(true)));
                     }}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fairgen
