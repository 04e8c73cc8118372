#ifndef FAIRGEN_GENERATORS_GENERATOR_H_
#define FAIRGEN_GENERATORS_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
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
/// into the score matrix B of Section II-D. `AssembleFairGraph`
/// (generators/assembler.h) thresholds it into a graph.
///
/// Storage is a flat (key, score) vector, key = u·n + v with u < v.
/// `AddEdge` appends one observation; `Compact` stable-sorts by key and
/// sums each key's observations in insertion order, starting from 0.0,
/// so every score has the bits of a `+=` per observation in the order
/// they were added. Readers see the compact scores: in place after
/// `Compact`, otherwise from a compacted copy.
class EdgeScoreAccumulator {
 public:
  explicit EdgeScoreAccumulator(uint32_t num_nodes);

  /// Counts every consecutive pair of a walk as one edge observation
  /// (self transitions are ignored).
  void AddWalk(const Walk& walk);

  /// Adds `count` to the score of edge {u, v}.
  void AddEdge(NodeId u, NodeId v, double count = 1.0);

  /// Reserves room for `observations` AddEdge calls in all.
  void Reserve(size_t observations) { entries_.reserve(observations); }

  /// Sorts the observations by key and folds each key's into one score
  /// (see the class comment). Idempotent.
  void Compact();

  /// The k-way merge of `runs` (same node count required), which are
  /// compacted first and freed on return: each key's score is the sum of
  /// its run scores in run order, starting from 0.0, and the total is
  /// the sum of the run totals in run order. `AccumulateWalkScores`
  /// merges its budget chunks with this in chunk order.
  static EdgeScoreAccumulator MergeRuns(std::vector<EdgeScoreAccumulator> runs);

  /// Number of distinct scored edges.
  size_t num_scored_edges() const;

  /// Total accumulated score.
  double total_score() const { return total_score_; }

  /// Scored edges as (edge, score) pairs, u < v, in ascending key order
  /// (u, then v).
  std::vector<std::pair<Edge, double>> ScoredEdges() const;

  uint32_t num_nodes() const { return num_nodes_; }

  /// Heap bytes of the score vector (its capacity). Exported as the
  /// `generate.accumulator_bytes` gauge after walk accumulation.
  size_t MemoryBytes() const { return entries_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    uint64_t key;  // u * n + v, u < v
    double score;
  };

  /// The compact scores: `entries_` itself after `Compact`, otherwise a
  /// compacted copy written to `*scratch`.
  const std::vector<Entry>& CompactScores(std::vector<Entry>* scratch) const;

  uint32_t num_nodes_;
  std::vector<Entry> entries_;
  bool compact_ = true;  // entries_ key-ascending with unique keys
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
/// `rng`, compacted on its worker and merged in chunk order
/// (`EdgeScoreAccumulator::MergeRuns`). Chunk layout, streams, and merge order
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
