#include "generators/generator.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "graph/builder.h"

namespace fairgen {

Result<std::vector<std::pair<Edge, double>>> GraphGenerator::ScoreEdges(
    Rng&) {
  return Status::NotImplemented(name() + " does not score candidate edges");
}

EdgeScoreAccumulator::EdgeScoreAccumulator(uint32_t num_nodes)
    : num_nodes_(num_nodes) {
  FAIRGEN_CHECK(num_nodes > 0);
}

void EdgeScoreAccumulator::AddWalk(const Walk& walk) {
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    if (walk[i] != walk[i + 1]) {
      AddEdge(walk[i], walk[i + 1]);
    }
  }
}

void EdgeScoreAccumulator::AddEdge(NodeId u, NodeId v, double count) {
  FAIRGEN_CHECK(u < num_nodes_ && v < num_nodes_);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  uint64_t key = static_cast<uint64_t>(u) * num_nodes_ + v;
  scores_[key] += count;
  total_score_ += count;
}

void EdgeScoreAccumulator::Merge(const EdgeScoreAccumulator& other) {
  FAIRGEN_CHECK(other.num_nodes_ == num_nodes_);
  for (const auto& [key, score] : other.scores_) {
    scores_[key] += score;
  }
  total_score_ += other.total_score_;
}

std::vector<std::pair<Edge, double>> EdgeScoreAccumulator::ScoredEdges()
    const {
  std::vector<std::pair<Edge, double>> out;
  out.reserve(scores_.size());
  for (const auto& [key, score] : scores_) {
    NodeId u = static_cast<NodeId>(key / num_nodes_);
    NodeId v = static_cast<NodeId>(key % num_nodes_);
    out.push_back({{u, v}, score});
  }
  return out;
}

Result<Graph> EdgeScoreAccumulator::BuildTopEdges(
    uint64_t target_edges) const {
  std::vector<std::pair<Edge, double>> edges = ScoredEdges();
  std::sort(edges.begin(), edges.end(),
            [this](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              uint64_t ka = static_cast<uint64_t>(a.first.u) * num_nodes_ +
                            a.first.v;
              uint64_t kb = static_cast<uint64_t>(b.first.u) * num_nodes_ +
                            b.first.v;
              return ka < kb;
            });
  GraphBuilder builder(num_nodes_);
  uint64_t taken = 0;
  for (const auto& [edge, score] : edges) {
    if (taken >= target_edges) break;
    FAIRGEN_RETURN_NOT_OK(builder.AddEdge(edge.u, edge.v));
    ++taken;
  }
  metrics::MetricsRegistry::Global()
      .GetCounter("generate.edges_emitted")
      .Increment(taken);
  return builder.Build();
}

namespace {

// Walk sampling always decomposes into this many budget chunks, regardless
// of the thread count — that (plus the ordered merge) is what makes the
// accumulator bit-identical across `num_threads` settings. 64 chunks keep
// every pool size busy while the per-chunk RNG-split cost stays trivial.
constexpr uint64_t kWalkBudgetChunks = 64;

}  // namespace

EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const WalkSampler& sample_walk) {
  return AccumulateWalkScores(
      num_nodes, target_transitions, num_threads, rng,
      std::function<WalkSampler()>([&sample_walk] { return sample_walk; }));
}

EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const std::function<WalkSampler()>& new_sampler) {
  trace::ScopedSpan span("generate.accumulate_walks",
                         trace::Category::kGenerate);
  static metrics::Counter& walk_counter =
      metrics::MetricsRegistry::Global().GetCounter("generate.walks");
  static metrics::Counter& transition_counter =
      metrics::MetricsRegistry::Global().GetCounter("generate.transitions");
  static metrics::Counter& degenerate_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "generate.degenerate_walks");
  Timer timer;
  const uint64_t chunks = std::min<uint64_t>(
      kWalkBudgetChunks, std::max<uint64_t>(uint64_t{1}, target_transitions));
  // Exact budget split: chunk c gets floor(target/chunks) transitions plus
  // one unit of the remainder, so the chunks sum to the target exactly
  // instead of overshooting by up to `chunks - 1` rounded-up shares.
  const uint64_t base_budget = target_transitions / chunks;
  const uint64_t remainder = target_transitions % chunks;

  std::vector<Rng> streams = SplitRngs(rng, chunks);
  std::vector<EdgeScoreAccumulator> partials(
      chunks, EdgeScoreAccumulator(num_nodes));
  // Call-local throughput totals (the registry counters are process-wide
  // and monotonic; the gauges below report this call's rates).
  std::atomic<uint64_t> call_walks{0};
  std::atomic<uint64_t> call_transitions{0};
  ParallelFor(
      size_t{0}, chunks, size_t{1},
      [&](size_t c) {
        const uint64_t budget = base_budget + (c < remainder ? 1 : 0);
        Rng& worker_rng = streams[c];
        EdgeScoreAccumulator& acc = partials[c];
        const WalkSampler sample_walk = new_sampler();
        uint64_t transitions = 0;
        uint64_t walks = 0;
        uint64_t degenerate = 0;
        while (transitions < budget) {
          Walk walk = sample_walk(worker_rng);
          acc.AddWalk(walk);
          ++walks;
          if (walk.size() <= 1) ++degenerate;
          // A degenerate single-node walk still consumes one unit so the
          // loop always makes forward progress.
          transitions += walk.size() > 1 ? walk.size() - 1 : 1;
        }
        // One atomic add per chunk; counts sum exactly under concurrency.
        walk_counter.Increment(walks);
        transition_counter.Increment(transitions);
        if (degenerate > 0) degenerate_counter.Increment(degenerate);
        call_walks.fetch_add(walks, std::memory_order_relaxed);
        call_transitions.fetch_add(transitions, std::memory_order_relaxed);
      },
      num_threads);

  EdgeScoreAccumulator acc(num_nodes);
  for (const EdgeScoreAccumulator& partial : partials) {
    acc.Merge(partial);
  }
  const double elapsed = timer.ElapsedSeconds();
  if (elapsed > 0.0) {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    registry.GetGauge("generate.walks_per_sec")
        .Set(static_cast<double>(call_walks.load()) / elapsed);
    registry.GetGauge("generate.transitions_per_sec")
        .Set(static_cast<double>(call_transitions.load()) / elapsed);
  }
  static metrics::Gauge& accumulator_bytes_gauge =
      metrics::MetricsRegistry::Global().GetGauge(
          "generate.accumulator_bytes");
  accumulator_bytes_gauge.Set(static_cast<double>(acc.MemoryBytes()));
  return acc;
}

}  // namespace fairgen
