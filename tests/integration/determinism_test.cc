// Thread-count determinism suite: fairness metrics must be bitwise-stable
// across runs (FAROS), so every parallel kernel must produce results at
// num_threads = N that are bit-identical to num_threads = 1 under a fixed
// seed. These tests pin that contract for the edge-score accumulators, the
// MMD statistics, the triangle kernels, the walk samplers, and the
// node2vec embeddings.

#include <algorithm>
#include <gtest/gtest.h>

#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/prof.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "embed/node2vec.h"
#include "generators/er.h"
#include "generators/netgan.h"
#include "graph/triangles.h"
#include "stats/mmd.h"

namespace fairgen {
namespace {

// Sorted, comparable view of an accumulator's scored edges.
std::vector<std::pair<Edge, double>> SortedScores(
    std::vector<std::pair<Edge, double>> scores) {
  std::sort(scores.begin(), scores.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.first.u, a.first.v) <
                     std::tie(b.first.u, b.first.v);
            });
  return scores;
}

void ExpectBitIdentical(const std::vector<std::pair<Edge, double>>& a,
                        const std::vector<std::pair<Edge, double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first.u, b[i].first.u);
    EXPECT_EQ(a[i].first.v, b[i].first.v);
    EXPECT_EQ(a[i].second, b[i].second);  // exact, not NEAR
  }
}

// Runs `fn(threads)` at 1/2/4 threads and checks the 2- and 4-thread
// results against the serial one.
template <typename Fn>
void ExpectSameAcrossThreadCounts(Fn&& fn) {
  auto serial = fn(1u);
  EXPECT_NO_FATAL_FAILURE(ExpectBitIdentical(fn(2u), serial));
  EXPECT_NO_FATAL_FAILURE(ExpectBitIdentical(fn(4u), serial));
}

Graph TestGraph(uint32_t seed, uint32_t nodes = 60, uint32_t edges = 300) {
  Rng rng(seed);
  auto g = SampleErdosRenyi(nodes, edges, rng);
  g.status().CheckOK();
  return *std::move(g);
}

TEST(DeterminismTest, AccumulateWalkScoresIsThreadCountInvariant) {
  Graph graph = TestGraph(11);
  RandomWalker walker(graph);
  ExpectSameAcrossThreadCounts([&](uint32_t threads) {
    Rng rng(42);
    EdgeScoreAccumulator acc = AccumulateWalkScores(
        graph.num_nodes(), /*target_transitions=*/5000, threads, rng,
        [&](Rng& walk_rng) {
          return walker.UniformWalk(walker.SampleStartNode(walk_rng), 10,
                                    walk_rng);
        });
    return SortedScores(acc.ScoredEdges());
  });
}

TEST(DeterminismTest, NetGanEdgeScoresAreThreadCountInvariant) {
  Rng data_rng(3);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_edges = 250;
  auto data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  ExpectSameAcrossThreadCounts([&](uint32_t threads) {
    NetGanConfig netgan;
    netgan.train.num_walks = 40;
    netgan.train.epochs = 1;
    netgan.train.gen_transition_multiplier = 4.0;
    netgan.train.num_threads = threads;
    netgan.dim = 12;
    netgan.hidden_dim = 12;
    NetGanGenerator gen(netgan);
    Rng fit_rng(7);
    EXPECT_TRUE(gen.Fit(data->graph, fit_rng).ok());
    Rng score_rng(8);
    auto scored = gen.ScoreEdges(score_rng);
    EXPECT_TRUE(scored.ok());
    return SortedScores(*std::move(scored));
  });
}

TEST(DeterminismTest, FairGenEdgeScoresAreThreadCountInvariant) {
  Rng data_rng(5);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_edges = 160;
  cfg.num_classes = 2;
  auto data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  ExpectSameAcrossThreadCounts([&](uint32_t threads) {
    FairGenConfig fairgen;
    fairgen.num_walks = 40;
    fairgen.self_paced_cycles = 1;
    fairgen.generator_epochs = 1;
    fairgen.gen_transition_multiplier = 2.0;
    fairgen.embedding_dim = 16;
    fairgen.ffn_dim = 32;
    fairgen.num_threads = threads;
    FairGenTrainer trainer(fairgen);
    Rng fit_rng(17);
    EXPECT_TRUE(trainer.Fit(data->graph, fit_rng).ok());
    Rng score_rng(18);
    auto scored = trainer.ScoreEdges(score_rng);
    EXPECT_TRUE(scored.ok());
    return SortedScores(*std::move(scored));
  });
}

// The generator minibatches are sharded across the pool, and the shard
// replicas are reused from cycle to cycle; with an odd batch size every
// batch splits raggedly. The model must still be the same at every
// thread count.
TEST(DeterminismTest, FairGenShardedTrainingIsThreadCountInvariant) {
  Rng data_rng(6);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_edges = 160;
  cfg.num_classes = 2;
  auto data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  ExpectSameAcrossThreadCounts([&](uint32_t threads) {
    FairGenConfig fairgen;
    fairgen.num_walks = 40;
    fairgen.self_paced_cycles = 2;
    fairgen.generator_epochs = 1;
    fairgen.generator_batch = 7;
    fairgen.gen_transition_multiplier = 2.0;
    fairgen.embedding_dim = 16;
    fairgen.ffn_dim = 32;
    fairgen.num_threads = threads;
    FairGenTrainer trainer(fairgen);
    Rng fit_rng(19);
    EXPECT_TRUE(trainer.Fit(data->graph, fit_rng).ok());
    Rng score_rng(20);
    auto scored = trainer.ScoreEdges(score_rng);
    EXPECT_TRUE(scored.ok());
    return SortedScores(*std::move(scored));
  });
}

TEST(DeterminismTest, MmdIsThreadCountInvariant) {
  Graph a = TestGraph(21, 300, 1200);
  Graph b = TestGraph(22, 300, 1500);

  uint32_t saved = DefaultNumThreads();
  SetDefaultNumThreads(1);
  auto degree_serial = DegreeMmd(a, b);
  auto clustering_serial = ClusteringMmd(a, b);
  ASSERT_TRUE(degree_serial.ok());
  ASSERT_TRUE(clustering_serial.ok());
  for (uint32_t threads : {2u, 4u}) {
    SetDefaultNumThreads(threads);
    auto degree = DegreeMmd(a, b);
    auto clustering = ClusteringMmd(a, b);
    ASSERT_TRUE(degree.ok());
    ASSERT_TRUE(clustering.ok());
    EXPECT_EQ(*degree, *degree_serial) << threads << " threads";
    EXPECT_EQ(*clustering, *clustering_serial) << threads << " threads";
  }
  SetDefaultNumThreads(saved);
}

TEST(DeterminismTest, TrianglesAreThreadCountInvariant) {
  Graph g = TestGraph(31, 400, 2400);
  uint32_t saved = DefaultNumThreads();
  SetDefaultNumThreads(1);
  uint64_t total_serial = CountTriangles(g);
  std::vector<uint64_t> per_node_serial = PerNodeTriangles(g);
  for (uint32_t threads : {2u, 4u}) {
    SetDefaultNumThreads(threads);
    EXPECT_EQ(CountTriangles(g), total_serial);
    EXPECT_EQ(PerNodeTriangles(g), per_node_serial);
  }
  SetDefaultNumThreads(saved);
  // Cross-check the two kernels: per-node counts triple-count each
  // triangle (once per corner).
  uint64_t corner_sum = 0;
  for (uint64_t t : per_node_serial) corner_sum += t;
  EXPECT_EQ(corner_sum, 3 * total_serial);
}

TEST(DeterminismTest, WalkSamplersAreThreadCountInvariant) {
  Graph g = TestGraph(41);
  RandomWalker uniform(g);
  Node2VecWalker biased(g, Node2VecParams{0.5, 2.0});
  for (uint32_t threads : {2u, 4u}) {
    Rng serial_rng(9);
    Rng thread_rng(9);
    EXPECT_EQ(uniform.SampleUniformWalks(100, 8, serial_rng, 1),
              uniform.SampleUniformWalks(100, 8, thread_rng, threads))
        << threads << " threads";
    Rng serial_rng2(10);
    Rng thread_rng2(10);
    EXPECT_EQ(biased.SampleWalks(100, 8, serial_rng2, 1),
              biased.SampleWalks(100, 8, thread_rng2, threads))
        << threads << " threads";
  }
}

// Instrumentation is observation-only: with metrics *and* tracing enabled
// the pipeline must produce outputs bit-identical to a run with both
// disabled, at every thread count. This is the contract that lets
// production runs keep telemetry on without invalidating the bitwise
// determinism guarantees above.
TEST(DeterminismTest, InstrumentationDoesNotPerturbOutputs) {
  Graph graph = TestGraph(51);
  RandomWalker walker(graph);
  Graph other = TestGraph(52);

  struct Observed {
    std::vector<std::pair<Edge, double>> scores;
    std::vector<Walk> walks;
    double degree_mmd = 0.0;
  };
  auto run = [&](uint32_t threads) {
    Observed out;
    // Memory probing at stage boundaries is part of the instrumentation
    // under test: it reads /proc and writes gauges/series, and must be as
    // output-neutral as the metrics and tracer mutations around it.
    memprobe::Sample("determinism.start");
    Rng acc_rng(42);
    EdgeScoreAccumulator acc = AccumulateWalkScores(
        graph.num_nodes(), /*target_transitions=*/4000, threads, acc_rng,
        [&](Rng& walk_rng) {
          return walker.UniformWalk(walker.SampleStartNode(walk_rng), 10,
                                    walk_rng);
        });
    out.scores = SortedScores(acc.ScoredEdges());
    memprobe::Sample("determinism.accumulated");
    Rng walk_rng(43);
    out.walks = walker.SampleUniformWalks(80, 8, walk_rng, threads);
    uint32_t saved = DefaultNumThreads();
    SetDefaultNumThreads(threads);
    auto mmd = DegreeMmd(graph, other);
    SetDefaultNumThreads(saved);
    EXPECT_TRUE(mmd.ok());
    out.degree_mmd = *mmd;
    memprobe::Sample("determinism.end");
    return out;
  };

  const bool metrics_before = metrics::Enabled();
  const bool trace_before = trace::Tracer::Global().enabled();
  for (uint32_t threads : {1u, 2u, 4u}) {
    metrics::SetEnabled(true);
    trace::Tracer::Global().SetEnabled(true);
    Observed on = run(threads);
    EXPECT_GT(trace::Tracer::Global().size(), 0u)
        << "tracing was enabled but recorded nothing";

    metrics::SetEnabled(false);
    trace::Tracer::Global().SetEnabled(false);
    Observed off = run(threads);

    ExpectBitIdentical(on.scores, off.scores);
    EXPECT_EQ(on.walks, off.walks) << threads << " threads";
    EXPECT_EQ(on.degree_mmd, off.degree_mmd) << threads << " threads";
  }
  metrics::SetEnabled(metrics_before);
  trace::Tracer::Global().SetEnabled(trace_before);
  trace::Tracer::Global().Clear();
}

// The sampling profiler extends the observation-only contract to SIGPROF
// interruption: with the profiler running (stack sampling at a high rate
// plus hardware-counter reads at every span boundary), outputs must be
// bit-identical to an unprofiled run at every thread count. The profiler
// draws no Rng, uses SA_RESTART (no EINTR leakage into the pipeline) and
// only its own atomics — this test pins all three.
TEST(DeterminismTest, ProfilerDoesNotPerturbOutputs) {
  Graph graph = TestGraph(53);
  RandomWalker walker(graph);
  Graph other = TestGraph(54);

  auto run = [&](uint32_t threads) {
    std::vector<std::pair<Edge, double>> out;
    Rng acc_rng(44);
    EdgeScoreAccumulator acc = AccumulateWalkScores(
        graph.num_nodes(), /*target_transitions=*/4000, threads, acc_rng,
        [&](Rng& walk_rng) {
          return walker.UniformWalk(walker.SampleStartNode(walk_rng), 10,
                                    walk_rng);
        });
    return SortedScores(acc.ScoredEdges());
  };

  // Tracing on so ScopedSpan actually exercises the hardware-counter
  // read path while the profiler is running.
  const bool trace_before = trace::Tracer::Global().enabled();
  trace::Tracer::Global().SetEnabled(true);
  for (uint32_t threads : {1u, 2u, 4u}) {
    prof::ProfilerOptions options;
    options.hz = 997;
    ASSERT_TRUE(prof::Profiler::Global().Start(options).ok());
    auto profiled = run(threads);
    prof::Profiler::Global().Stop();

    auto unprofiled = run(threads);
    ExpectBitIdentical(profiled, unprofiled);
  }
  trace::Tracer::Global().SetEnabled(trace_before);
  trace::Tracer::Global().Clear();
}

// The telemetry publisher extends the observation-only contract to a
// *concurrent* observer: a background thread snapshotting the registry,
// memprobe, and tracer every few milliseconds while FairGen trains must
// not perturb a single output bit at any thread count. This is what makes
// `--telemetry-dir` safe to leave on for real runs.
TEST(DeterminismTest, TelemetryPublisherDoesNotPerturbOutputs) {
  Rng data_rng(13);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_edges = 160;
  cfg.num_classes = 2;
  auto data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  auto run = [&](uint32_t threads) {
    FairGenConfig fairgen;
    fairgen.num_walks = 40;
    fairgen.self_paced_cycles = 2;
    fairgen.generator_epochs = 1;
    fairgen.gen_transition_multiplier = 2.0;
    fairgen.embedding_dim = 16;
    fairgen.ffn_dim = 32;
    fairgen.num_threads = threads;
    FairGenTrainer trainer(fairgen);
    Rng fit_rng(29);
    EXPECT_TRUE(trainer.Fit(data->graph, fit_rng).ok());
    Rng score_rng(30);
    auto scored = trainer.ScoreEdges(score_rng);
    EXPECT_TRUE(scored.ok());
    return SortedScores(*std::move(scored));
  };

  const bool metrics_before = metrics::Enabled();
  metrics::SetEnabled(true);
  for (uint32_t threads : {1u, 2u, 4u}) {
    // Publisher on: snapshots race the training loop at a 5 ms cadence.
    telemetry::PublisherOptions options;
    options.dir = testing::TempDir() + "/fairgen_determinism_telemetry";
    options.interval_ms = 5;
    telemetry::Publisher publisher(options);
    ASSERT_TRUE(publisher.Init().ok());
    auto with_publisher = run(threads);
    EXPECT_GT(publisher.snapshots_written(), 0u);
    publisher.Stop(0);

    auto without_publisher = run(threads);
    ExpectBitIdentical(with_publisher, without_publisher);
  }
  metrics::SetEnabled(metrics_before);
}

TEST(DeterminismTest, Node2VecEmbeddingsAreThreadCountInvariant) {
  Rng data_rng(6);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_edges = 200;
  auto data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  auto train = [&](uint32_t threads) {
    Node2VecConfig n2v;
    n2v.dim = 16;
    n2v.walks_per_node = 2;
    n2v.walk_length = 10;
    n2v.epochs = 1;
    n2v.num_threads = threads;
    Rng rng(77);
    return Node2VecModel::Train(data->graph, n2v, rng);
  };
  Node2VecModel serial = train(1);
  for (uint32_t threads : {2u, 4u}) {
    Node2VecModel threaded = train(threads);
    ASSERT_EQ(threaded.embeddings().size(), serial.embeddings().size());
    for (size_t i = 0; i < serial.embeddings().size(); ++i) {
      ASSERT_EQ(threaded.embeddings().data()[i],
                serial.embeddings().data()[i])
          << "component " << i << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace fairgen
