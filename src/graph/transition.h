#ifndef FAIRGEN_GRAPH_TRANSITION_H_
#define FAIRGEN_GRAPH_TRANSITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "rng/rng.h"

namespace fairgen {

/// \brief The lazy random-walk transition operator M = (A D^{-1} + I) / 2
/// of an undirected graph, applied matrix-free to probability vectors.
///
/// M is column-stochastic: entry M[u][v] is the probability of moving from
/// v to u in one lazy step (stay with probability 1/2, otherwise a uniform
/// neighbor). Isolated nodes keep all their mass. This is the operator in
/// the paper's Definition 1 (diffusion cores) and Lemma 2.1.
class TransitionOperator {
 public:
  /// Keeps a pointer to `graph`; the graph must outlive this operator.
  explicit TransitionOperator(const Graph& graph);

  /// Returns M x.
  std::vector<double> Apply(const std::vector<double>& x) const;

  /// Returns diag(mask) M x — one step of the walk truncated to the set
  /// indicated by `mask` (mass leaving the set is discarded).
  std::vector<double> ApplyTruncated(const std::vector<double>& x,
                                     const std::vector<uint8_t>& mask) const;

  /// Returns (diag(mask) M)^t χ_{source}; its l1 mass is the probability
  /// that a t-step lazy walk started at `source` never leaves the set.
  std::vector<double> TruncatedPower(NodeId source, uint32_t t,
                                     const std::vector<uint8_t>& mask) const;

  /// l1 mass of `x` (probability retained after truncation).
  static double Mass(const std::vector<double>& x);

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
};

// ---------------------------------------------------------------------------
// Precomputed O(1) walk-transition sampling (Vose alias tables over CSR)
// ---------------------------------------------------------------------------
//
// Both classes below are built once per graph, charge their flat arrays
// to `memprobe::TransitionBytes()` (exported by the telemetry publisher
// as `fairgen_transition_bytes_live` / `fairgen_transition_bytes_peak`),
// and draw exactly ONE rng value per sample — the same budget as
// `SampleDiscrete` — so walk code keeps its one-draw-per-step rng
// discipline.

/// \brief One-draw start-node distribution over a graph's nodes.
///
/// Replaces the O(n)-memory positive-degree index list and the generic
/// `AliasTable` (two draws per sample) previously used for walk starts.
/// Graphs with no edges degrade to uniform over all nodes, matching the
/// old `RandomWalker::SampleStartNode` fallback.
class StartDistribution {
 public:
  enum class Kind {
    /// Uniform over positive-degree nodes (first-order walk starts).
    kUniformPositiveDegree,
    /// Proportional to degree (generator/LM walk starts).
    kDegreeProportional,
  };

  StartDistribution(const Graph& graph, Kind kind);
  ~StartDistribution();

  StartDistribution(StartDistribution&& other) noexcept;
  StartDistribution& operator=(StartDistribution&& other) noexcept;
  StartDistribution(const StartDistribution&) = delete;
  StartDistribution& operator=(const StartDistribution&) = delete;

  /// Draws a start node in O(1) with exactly one rng draw.
  NodeId Sample(Rng& rng) const;

  /// Number of nodes covered.
  size_t size() const { return prob_.size(); }

  /// Heap bytes of the alias arrays (what TransitionBytes was charged).
  uint64_t MemoryBytes() const { return accounted_bytes_; }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  uint64_t accounted_bytes_ = 0;
};

/// \brief Per-directed-edge Vose alias tables for the node2vec (p, q)
/// second-order walk: row `s` (the CSR slot of the arrival edge
/// prev → cur) covers `Neighbors(cur)` with the standard weights 1/p for
/// backtracking, 1 for a neighbor of `prev`, 1/q otherwise. One O(1)
/// draw per step instead of the O(deg · log deg) weight scan.
///
/// Memory is Σ_v deg(v)² entries (12 bytes each) plus 2m+1 row offsets —
/// the classic node2vec precomputation trade-off; `MemoryBytes()` is
/// charged to `memprobe::TransitionBytes()`. When p == q == 1 every row
/// is uniform, so nothing is materialized and steps sample uniformly
/// (still one draw).
class SecondOrderTransitionTables {
 public:
  SecondOrderTransitionTables(const Graph& graph, double p, double q);
  ~SecondOrderTransitionTables();

  SecondOrderTransitionTables(SecondOrderTransitionTables&&) noexcept;
  SecondOrderTransitionTables& operator=(
      SecondOrderTransitionTables&&) noexcept;
  SecondOrderTransitionTables(const SecondOrderTransitionTables&) = delete;
  SecondOrderTransitionTables& operator=(const SecondOrderTransitionTables&) =
      delete;

  /// Samples an index into `Neighbors(cur)` for the step following the
  /// arrival edge with slot `slot` (prev → cur, where cur =
  /// neighbors[slot]); cur must have at least one neighbor. One rng
  /// draw. The caller advances its state with
  /// `next_slot = graph.NeighborOffset(cur) + returned index`.
  uint32_t SampleStep(uint64_t slot, Rng& rng) const;

  /// True when the (p, q) weights are uniform and no rows were built.
  bool uniform() const { return uniform_; }

  uint64_t MemoryBytes() const { return accounted_bytes_; }

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
  bool uniform_ = false;
  std::vector<uint64_t> row_offsets_;  // 2m+1 (empty when uniform)
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  uint64_t accounted_bytes_ = 0;
};

}  // namespace fairgen

#endif  // FAIRGEN_GRAPH_TRANSITION_H_
