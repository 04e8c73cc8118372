#ifndef FAIRGEN_GENERATORS_GENERATOR_H_
#define FAIRGEN_GENERATORS_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "rng/rng.h"
#include "walk/random_walk.h"

namespace fairgen {

/// \brief Common interface of all graph generative models in the zoo
/// (ER, BA, GAE, NetGAN, TagGen, FairGen and its ablations).
///
/// Protocol: `Fit` on an observed graph, then `Generate` a synthetic graph
/// over the same vertex set with (approximately) the same number of edges.
class GraphGenerator {
 public:
  virtual ~GraphGenerator() = default;

  /// Model name as it appears in the paper's figures.
  virtual std::string name() const = 0;

  /// Trains the model on `graph`.
  virtual Status Fit(const Graph& graph, Rng& rng) = 0;

  /// Produces a synthetic graph with the same node count as the fitted
  /// graph and the same edge count (up to feasibility).
  virtual Result<Graph> Generate(Rng& rng) = 0;

  /// Scores candidate edges (higher = more plausible), for use cases that
  /// rank *potential* edges rather than thresholding into a whole graph —
  /// e.g. the data-augmentation case study (Sec. III-D), which inserts a
  /// model's most confident new edges into the original graph.
  ///
  /// The default returns NotImplemented; models without a usable edge
  /// score (ER, BA) rely on callers falling back to Generate().
  virtual Result<std::vector<std::pair<Edge, double>>> ScoreEdges(Rng& rng);
};

/// \brief Accumulates edge-occurrence counts from generated random walks
/// into the score matrix B of Section II-D, then thresholds into a graph.
///
/// The plain `BuildTopEdges` keeps the m highest-scoring edges — the
/// assembly used by the unsupervised walk-based baselines (NetGAN,
/// TagGen). The fairness-aware criteria live in core/assembler.h.
class EdgeScoreAccumulator {
 public:
  explicit EdgeScoreAccumulator(uint32_t num_nodes);

  /// Counts every consecutive pair of a walk as one edge observation
  /// (self transitions are ignored).
  void AddWalk(const Walk& walk);

  /// Adds `count` to the score of edge {u, v}.
  void AddEdge(NodeId u, NodeId v, double count = 1.0);

  /// Adds every score from `other` (same node count required). Used to
  /// combine per-thread accumulators after parallel walk sampling.
  void Merge(const EdgeScoreAccumulator& other);

  /// Number of distinct scored edges.
  size_t num_scored_edges() const { return scores_.size(); }

  /// Total accumulated score.
  double total_score() const { return total_score_; }

  /// Scored edges as (edge, score) pairs in unspecified order.
  std::vector<std::pair<Edge, double>> ScoredEdges() const;

  /// Builds a graph from the `target_edges` highest-scoring edges (fewer
  /// if not enough edges were observed). Ties are broken deterministically
  /// by edge id.
  Result<Graph> BuildTopEdges(uint64_t target_edges) const;

  uint32_t num_nodes() const { return num_nodes_; }

  /// Approximate heap bytes of the score table (hash nodes + bucket
  /// array). Exported as the `generate.accumulator_bytes` gauge after
  /// walk accumulation.
  size_t MemoryBytes() const {
    return scores_.bucket_count() * sizeof(void*) +
           scores_.size() *
               (sizeof(std::pair<uint64_t, double>) + sizeof(void*));
  }

 private:
  uint32_t num_nodes_;
  std::unordered_map<uint64_t, double> scores_;  // key = u * n + v, u < v
  double total_score_ = 0.0;
};

/// Draws one walk from the RNG stream it is given.
using WalkSampler = std::function<Walk(Rng&)>;

/// \brief Samples walks from `sample_walk` until `target_transitions` walk
/// transitions have been accumulated, and returns the combined score
/// accumulator. The shared generation-time sampling loop of
/// `FairGenTrainer` and the walk-LM generators (NetGAN, TagGen).
///
/// The budget is divided over a fixed number of chunks — the per-chunk
/// remainders distributed exactly, so the total never overshoots the
/// single-thread budget — each driven by its own RNG stream pre-split from
/// `rng` and merged in chunk order. Chunk layout, streams, and merge order
/// are all independent of `num_threads`, so the result is bit-identical
/// for any thread count (0 = process default, 1 = serial).
///
/// Every sampled walk advances the budget by at least one transition even
/// when the walk degenerates to a single node (a dead-end start or a
/// `walk_length == 1` configuration), guaranteeing termination.
EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const WalkSampler& sample_walk);

/// The same loop with per-chunk sampler state: `new_sampler()` runs once
/// per budget chunk, on the worker that runs the chunk, and the sampler
/// it returns draws every walk of that chunk. This is where state goes
/// that is costly to build and must not be shared across threads, such
/// as a model's KV-cache decoder. The overload above is this one with
/// a sampler that has no state.
EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const std::function<WalkSampler()>& new_sampler);

}  // namespace fairgen

#endif  // FAIRGEN_GENERATORS_GENERATOR_H_
