// Substrate micro-benchmarks (google-benchmark): the hot inner loops of
// the FairGen pipeline — CSR construction and queries, walk sampling,
// metric computation, the transition operator, and nn kernels.

#include <benchmark/benchmark.h>

#include "generators/assembler.h"
#include "generators/er.h"
#include "graph/transition.h"
#include "graph/triangles.h"
#include "nn/loss.h"
#include "nn/transformer.h"
#include "rng/sampling.h"
#include "stats/metrics.h"
#include "walk/context_sampler.h"
#include "walk/node2vec_walk.h"

namespace fairgen {
namespace {

Graph MakeGraph(uint32_t n, uint64_t m, uint64_t seed = 1) {
  Rng rng(seed);
  return SampleErdosRenyi(n, m, rng).MoveValueUnsafe();
}

void BM_GraphBuild(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  auto g = SampleErdosRenyi(n, 8ull * n, rng);
  std::vector<Edge> edges = g->ToEdgeList();
  for (auto _ : state) {
    auto built = Graph::FromEdges(n, edges);
    benchmark::DoNotOptimize(built->num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(5000);

void BM_HasEdge(benchmark::State& state) {
  Graph g = MakeGraph(2000, 16000);
  Rng rng(2);
  for (auto _ : state) {
    NodeId u = rng.UniformU32(2000);
    NodeId v = rng.UniformU32(2000);
    benchmark::DoNotOptimize(g.HasEdge(u, v));
  }
}
BENCHMARK(BM_HasEdge);

void BM_UniformWalk(benchmark::State& state) {
  Graph g = MakeGraph(2000, 16000);
  RandomWalker walker(g);
  Rng rng(3);
  for (auto _ : state) {
    Walk w = walker.UniformWalk(walker.SampleStartNode(rng), 10, rng);
    benchmark::DoNotOptimize(w.back());
  }
}
BENCHMARK(BM_UniformWalk);

void BM_Node2VecWalk(benchmark::State& state) {
  Graph g = MakeGraph(2000, 16000);
  Node2VecWalker walker(g, {0.5, 2.0});
  Rng rng(4);
  for (auto _ : state) {
    Walk w = walker.SampleWalk(rng.UniformU32(2000), 10, rng);
    benchmark::DoNotOptimize(w.back());
  }
}
BENCHMARK(BM_Node2VecWalk);

void BM_TriangleCount(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<uint32_t>(state.range(0)),
                      8ull * state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
}
BENCHMARK(BM_TriangleCount)->Arg(1000)->Arg(4000);

void BM_ComputeMetrics(benchmark::State& state) {
  Graph g = MakeGraph(2000, 16000);
  for (auto _ : state) {
    GraphMetrics m = ComputeMetrics(g);
    benchmark::DoNotOptimize(m.gini);
  }
}
BENCHMARK(BM_ComputeMetrics);

void BM_TransitionApply(benchmark::State& state) {
  Graph g = MakeGraph(5000, 40000);
  TransitionOperator op(g);
  std::vector<double> x(5000, 1.0 / 5000);
  for (auto _ : state) {
    x = op.Apply(x);
    benchmark::DoNotOptimize(x[0]);
  }
}
BENCHMARK(BM_TransitionApply);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> weights(10000);
  for (double& w : weights) w = rng.UniformDouble() + 0.01;
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_TransformerWalkNll(benchmark::State& state) {
  Rng rng(6);
  nn::TransformerConfig cfg;
  cfg.vocab_size = static_cast<size_t>(state.range(0));
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 1;
  cfg.ffn_dim = 48;
  nn::TransformerLM lm(cfg, rng);
  std::vector<uint32_t> walk(10);
  for (auto& v : walk) v = rng.UniformU32(static_cast<uint32_t>(cfg.vocab_size));
  for (auto _ : state) {
    nn::Var loss = lm.WalkNll(walk);
    nn::Backward(loss);
    benchmark::DoNotOptimize(loss->value.ScalarValue());
  }
}
BENCHMARK(BM_TransformerWalkNll)->Arg(500)->Arg(2000);

void BM_TransformerSampleWalk(benchmark::State& state) {
  Rng rng(7);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 1000;
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 1;
  cfg.ffn_dim = 48;
  nn::TransformerLM lm(cfg, rng);
  for (auto _ : state) {
    auto walk = lm.SampleWalk(rng.UniformU32(1000), 10, rng);
    benchmark::DoNotOptimize(walk.back());
  }
}
BENCHMARK(BM_TransformerSampleWalk);

void BM_FairAssembly(benchmark::State& state) {
  Graph g = MakeGraph(2000, 16000, 8);
  std::vector<NodeId> protected_set;
  for (NodeId v = 0; v < 200; ++v) protected_set.push_back(v);
  Rng rng(9);
  RandomWalker walker(g);
  EdgeScoreAccumulator acc(2000);
  for (int i = 0; i < 20000; ++i) {
    acc.AddWalk(walker.UniformWalk(walker.SampleStartNode(rng), 10, rng));
  }
  for (auto _ : state) {
    Rng inner(10);
    auto built = AssembleFairGraph(acc, g, protected_set, {}, inner);
    benchmark::DoNotOptimize(built->num_edges());
  }
}
BENCHMARK(BM_FairAssembly);

}  // namespace
}  // namespace fairgen

BENCHMARK_MAIN();
