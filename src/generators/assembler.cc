#include "generators/assembler.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "graph/builder.h"
#include "graph/subgraph.h"

namespace fairgen {

Result<Graph> AssembleFairGraph(const EdgeScoreAccumulator& scores,
                                const Graph& original,
                                const std::vector<NodeId>& protected_set,
                                const AssemblerCriteria& criteria, Rng& rng,
                                AssemblyReport* report) {
  trace::ScopedSpan span("assembler.assemble",
                         trace::Category::kAssemble);
  const uint32_t n = original.num_nodes();
  if (scores.num_nodes() != n) {
    return Status::InvalidArgument(
        "score accumulator node count does not match the original graph");
  }
  const uint64_t target_edges = original.num_edges();

  std::vector<std::pair<Edge, double>> ranked = scores.ScoredEdges();
  std::sort(ranked.begin(), ranked.end(), [n](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    uint64_t ka = static_cast<uint64_t>(a.first.u) * n + a.first.v;
    uint64_t kb = static_cast<uint64_t>(b.first.u) * n + b.first.v;
    return ka < kb;
  });

  std::vector<uint8_t> protected_mask = NodeMask(n, protected_set);
  uint64_t protected_volume_target = 0;
  uint64_t protected_internal_target = 0;
  if (criteria.preserve_protected_volume) {
    protected_volume_target = original.Volume(protected_set);
    // Edges internal to S+ (each contributes 2 to the volume). Matching
    // the internal count directly preserves the induced subgraph G̃_{S+}
    // that the R+ evaluation (Eq. 16) measures.
    for (NodeId v : protected_set) {
      for (NodeId u : original.Neighbors(v)) {
        if (protected_mask[u] && v < u) ++protected_internal_target;
      }
    }
  }

  AssemblyReport local_report;
  local_report.target_edges = target_edges;
  local_report.protected_volume_target = protected_volume_target;

  std::unordered_set<uint64_t> selected;
  selected.reserve(target_edges * 2);
  std::vector<uint32_t> degree(n, 0);
  uint64_t protected_volume = 0;
  uint64_t duplicate_rejects = 0;

  auto add_edge = [&](NodeId u, NodeId v) {
    NodeId a = std::min(u, v);
    NodeId b = std::max(u, v);
    if (a == b) return false;
    uint64_t key = static_cast<uint64_t>(a) * n + b;
    if (!selected.insert(key).second) {
      ++duplicate_rejects;
      return false;
    }
    ++degree[a];
    ++degree[b];
    if (protected_mask[a]) ++protected_volume;
    if (protected_mask[b]) ++protected_volume;
    return true;
  };

  // --- Phase A: criterion (2) — every node gets one edge. -----------------
  if (criteria.ensure_min_degree) {
    // Highest-scoring incident edge per node (the ranked list is sorted, so
    // the first hit per node wins).
    std::vector<int64_t> best_edge(n, -1);
    for (size_t i = 0; i < ranked.size(); ++i) {
      const Edge& e = ranked[i].first;
      if (best_edge[e.u] < 0) best_edge[e.u] = static_cast<int64_t>(i);
      if (best_edge[e.v] < 0) best_edge[e.v] = static_cast<int64_t>(i);
    }
    for (NodeId v = 0; v < n; ++v) {
      if (degree[v] > 0) continue;
      if (original.Degree(v) == 0) continue;  // isolated in G stays isolated
      if (best_edge[v] >= 0) {
        const Edge& e = ranked[static_cast<size_t>(best_edge[v])].first;
        if (add_edge(e.u, e.v)) ++local_report.isolated_nodes_fixed;
      } else if (n >= 2) {
        // No generated walk ever visited v: attach it to a random partner.
        NodeId partner = rng.UniformU32(n);
        while (partner == v) partner = rng.UniformU32(n);
        if (add_edge(v, partner)) {
          ++local_report.isolated_nodes_fixed;
          ++local_report.fallback_edges;
        }
      }
    }
  }

  // --- Phase B: criterion (1) — protected volume. --------------------------
  if (criteria.preserve_protected_volume) {
    // B1: match the number of edges *inside* S+ first (they determine the
    // induced subgraph), then B2: top up the incident volume.
    uint64_t protected_internal = 0;
    for (uint64_t key : selected) {
      NodeId a = static_cast<NodeId>(key / n);
      NodeId b = static_cast<NodeId>(key % n);
      if (protected_mask[a] && protected_mask[b]) ++protected_internal;
    }
    for (const auto& [edge, score] : ranked) {
      if (protected_internal >= protected_internal_target) break;
      if (selected.size() >= target_edges) break;
      if (!protected_mask[edge.u] || !protected_mask[edge.v]) continue;
      if (add_edge(edge.u, edge.v)) ++protected_internal;
    }
    for (const auto& [edge, score] : ranked) {
      if (protected_volume >= protected_volume_target) break;
      if (selected.size() >= target_edges) break;
      if (!protected_mask[edge.u] && !protected_mask[edge.v]) continue;
      add_edge(edge.u, edge.v);
    }
  }

  // --- Phase C: fill to the global edge budget. ----------------------------
  for (const auto& [edge, score] : ranked) {
    if (selected.size() >= target_edges) break;
    add_edge(edge.u, edge.v);
  }

  local_report.assembled_edges = selected.size();
  local_report.protected_volume_achieved = protected_volume;
  if (report != nullptr) *report = local_report;

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetCounter("assembler.edges_emitted").Increment(selected.size());
  registry.GetCounter("assembler.duplicate_rejects")
      .Increment(duplicate_rejects);
  registry.GetCounter("assembler.fallback_edges")
      .Increment(local_report.fallback_edges);
  registry.GetCounter("assembler.isolated_nodes_fixed")
      .Increment(local_report.isolated_nodes_fixed);
  registry.GetGauge("assembler.protected_volume_achieved")
      .Set(static_cast<double>(protected_volume));
  metrics::Histogram& degree_hist = registry.GetHistogram(
      "assembler.degree", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  for (NodeId v = 0; v < n; ++v) {
    degree_hist.Observe(static_cast<double>(degree[v]));
  }

  GraphBuilder builder(n);
  for (uint64_t key : selected) {
    FAIRGEN_RETURN_NOT_OK(builder.AddEdge(
        static_cast<NodeId>(key / n), static_cast<NodeId>(key % n)));
  }
  return builder.Build();
}

}  // namespace fairgen
