// Covers the shared WalkLMGenerator machinery through its two concrete
// models: NetGAN (LSTM) and TagGen (transformer).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include "data/synthetic.h"
#include "generators/netgan.h"
#include "generators/taggen.h"
#include "walk/random_walk.h"

namespace fairgen {
namespace {

WalkLMTrainConfig QuickBudget() {
  WalkLMTrainConfig cfg;
  cfg.walk_length = 8;
  cfg.num_walks = 60;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.gen_transition_multiplier = 3.0;
  return cfg;
}

LabeledGraph SmallGraph(uint64_t seed) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_edges = 300;
  Rng rng(seed);
  auto data = GenerateSynthetic(cfg, rng);
  EXPECT_TRUE(data.ok());
  return data.MoveValueUnsafe();
}

TEST(NetGanGeneratorTest, FitGenerateRoundTrip) {
  LabeledGraph data = SmallGraph(1);
  NetGanConfig cfg;
  cfg.train = QuickBudget();
  cfg.dim = 16;
  cfg.hidden_dim = 16;
  NetGanGenerator gen(cfg);
  EXPECT_EQ(gen.name(), "NetGAN");
  EXPECT_FALSE(gen.fitted());
  Rng rng(1);
  ASSERT_TRUE(gen.Fit(data.graph, rng).ok());
  EXPECT_TRUE(gen.fitted());
  ASSERT_NE(gen.model(), nullptr);
  auto out = gen.Generate(rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_nodes(), 60u);
  EXPECT_LE(out->num_edges(), 300u);
  EXPECT_GT(out->num_edges(), 0u);
}

TEST(TagGenGeneratorTest, FitGenerateRoundTrip) {
  LabeledGraph data = SmallGraph(2);
  TagGenConfig cfg;
  cfg.train = QuickBudget();
  cfg.dim = 16;
  cfg.num_heads = 2;
  TagGenGenerator gen(cfg);
  EXPECT_EQ(gen.name(), "TagGen");
  Rng rng(2);
  ASSERT_TRUE(gen.Fit(data.graph, rng).ok());
  auto out = gen.Generate(rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_nodes(), 60u);
  EXPECT_GT(out->num_edges(), 0u);
}

// TagGen with the base template's sampler: TransformerLM::SampleWalk
// per walk, which builds a KV decoder for every walk.
class PerWalkTagGen : public TagGenGenerator {
 public:
  using TagGenGenerator::TagGenGenerator;

 protected:
  WalkSampler NewChunkSampler() const override {
    return WalkLMGenerator<nn::TransformerLM>::NewChunkSampler();
  }
};

// TagGen keeps one decoder per budget chunk; its releases and edge
// scores must be byte-identical to the per-walk path at 1 and 3 threads.
TEST(TagGenGeneratorTest, ChunkDecoderMatchesPerWalkSampling) {
  LabeledGraph data = SmallGraph(8);
  for (uint32_t threads : {1u, 3u}) {
    TagGenConfig cfg;
    cfg.train = QuickBudget();
    cfg.train.num_threads = threads;
    cfg.dim = 16;
    cfg.num_heads = 2;
    TagGenGenerator chunked(cfg);
    PerWalkTagGen per_walk(cfg);
    Rng fit_a(8), fit_b(8);
    ASSERT_TRUE(chunked.Fit(data.graph, fit_a).ok());
    ASSERT_TRUE(per_walk.Fit(data.graph, fit_b).ok());

    Rng gen_a(9), gen_b(9);
    auto a = chunked.Generate(gen_a);
    auto b = per_walk.Generate(gen_b);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->ToEdgeList(), b->ToEdgeList()) << "threads=" << threads;

    auto scores_a = chunked.ScoreEdges(gen_a);
    auto scores_b = per_walk.ScoreEdges(gen_b);
    ASSERT_TRUE(scores_a.ok() && scores_b.ok());
    ASSERT_EQ(scores_a->size(), scores_b->size());
    for (size_t i = 0; i < scores_a->size(); ++i) {
      EXPECT_EQ((*scores_a)[i].first, (*scores_b)[i].first);
      EXPECT_EQ(std::memcmp(&(*scores_a)[i].second, &(*scores_b)[i].second,
                            sizeof(double)),
                0)
          << "edge " << i << " threads=" << threads;
    }
  }
}

TEST(WalkLMGeneratorTest, GenerateBeforeFitFails) {
  NetGanGenerator gen;
  Rng rng(3);
  EXPECT_TRUE(gen.Generate(rng).status().IsFailedPrecondition());
}

TEST(WalkLMGeneratorTest, RejectsEmptyGraph) {
  TagGenGenerator gen;
  Rng rng(4);
  EXPECT_TRUE(gen.Fit(Graph::Empty(5), rng).IsInvalidArgument());
}

TEST(WalkLMGeneratorTest, TrainingReducesHeldOutNll) {
  LabeledGraph data = SmallGraph(5);
  NetGanConfig cfg;
  cfg.train = QuickBudget();
  cfg.train.num_walks = 120;
  cfg.dim = 16;
  cfg.hidden_dim = 16;
  NetGanGenerator gen(cfg);
  Rng rng(5);
  ASSERT_TRUE(gen.Fit(data.graph, rng).ok());

  RandomWalker walker(data.graph);
  std::vector<Walk> held_out = walker.SampleUniformWalks(40, 8, rng);
  double before = MeanWalkNll(*gen.model(), held_out);
  // Three more rounds of training on fresh corpora.
  for (int round = 0; round < 3; ++round) {
    std::vector<Walk> corpus = walker.SampleUniformWalks(120, 8, rng);
    gen.TrainOnWalks(corpus, rng);
  }
  double after = MeanWalkNll(*gen.model(), held_out);
  EXPECT_LT(after, before);
}

TEST(WalkLMGeneratorTest, GeneratedEdgesConcentrateOnRealOnes) {
  // A trained walk model should place generated edges on real transitions
  // far more often than a uniform random generator would (which would get
  // ~density = m / C(n,2) = 17% right).
  LabeledGraph data = SmallGraph(6);
  NetGanConfig cfg;
  cfg.train = QuickBudget();
  cfg.train.num_walks = 300;
  cfg.train.epochs = 4;
  NetGanGenerator gen(cfg);
  Rng rng(6);
  ASSERT_TRUE(gen.Fit(data.graph, rng).ok());
  auto out = gen.Generate(rng);
  ASSERT_TRUE(out.ok());
  uint64_t overlap = 0;
  for (const Edge& e : out->ToEdgeList()) {
    if (data.graph.HasEdge(e.u, e.v)) ++overlap;
  }
  double precision =
      static_cast<double>(overlap) / static_cast<double>(out->num_edges());
  EXPECT_GT(precision, 0.25);
}

TEST(MeanWalkNllTest, EmptyCorpusIsZero) {
  LabeledGraph data = SmallGraph(7);
  NetGanConfig cfg;
  cfg.train = QuickBudget();
  NetGanGenerator gen(cfg);
  Rng rng(7);
  ASSERT_TRUE(gen.Fit(data.graph, rng).ok());
  EXPECT_EQ(MeanWalkNll(*gen.model(), {}), 0.0);
}

}  // namespace
}  // namespace fairgen
