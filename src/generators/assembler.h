#ifndef FAIRGEN_GENERATORS_ASSEMBLER_H_
#define FAIRGEN_GENERATORS_ASSEMBLER_H_

#include <vector>

#include "common/result.h"
#include "generators/generator.h"
#include "graph/graph.h"
#include "rng/rng.h"

namespace fairgen {

/// \brief Assembly criteria of Section II-D.
struct AssemblerCriteria {
  /// Criterion (1): the protected group in G̃ should have a similar volume
  /// (sum of degrees) as in the original graph.
  bool preserve_protected_volume = true;
  /// Criterion (2): every node should have at least one edge in G̃.
  bool ensure_min_degree = true;
};

/// \brief Diagnostics reported alongside the assembled graph.
struct AssemblyReport {
  uint64_t target_edges = 0;        ///< m of the original graph
  uint64_t assembled_edges = 0;     ///< edges actually placed
  uint64_t protected_volume_target = 0;
  uint64_t protected_volume_achieved = 0;
  uint32_t isolated_nodes_fixed = 0;   ///< nodes given a coverage edge
  uint32_t fallback_edges = 0;         ///< coverage edges with no scored
                                       ///< candidate (random partner)
};

/// \brief Fairness-aware graph assembly (Section II-D): thresholds the
/// score matrix B accumulated from generated walks into a graph with the
/// same edge count as the original, subject to the criteria above.
///
/// Greedy construction: (a) give every node its highest-scoring incident
/// edge (criterion 2); (b) add the highest-scoring protected-incident
/// edges until the protected volume matches the original's (criterion 1);
/// (c) fill the remaining budget with the globally highest-scoring edges.
/// Nodes with no scored candidate receive an edge to a uniformly random
/// partner (reported as `fallback_edges`).
///
/// Every scoring model releases through here. FairGen applies the
/// criteria; the baselines (NetGAN, TagGen, GAE, VGAE) pass both off,
/// which keeps the m highest-scoring edges, ties broken by ascending
/// edge key, and draws nothing from `rng`.
Result<Graph> AssembleFairGraph(const EdgeScoreAccumulator& scores,
                                const Graph& original,
                                const std::vector<NodeId>& protected_set,
                                const AssemblerCriteria& criteria, Rng& rng,
                                AssemblyReport* report = nullptr);

}  // namespace fairgen

#endif  // FAIRGEN_GENERATORS_ASSEMBLER_H_
