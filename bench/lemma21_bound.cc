// Lemma 2.1: the context-sampling guarantee.
//
// For each labeled dataset, computes the (δ,t)-diffusion core of a class
// community and of the protected group, then compares the Lemma 2.1 lower
// bound 1 − T·δ·φ(S) against the empirically measured probability that a
// T-step lazy walk from a core member stays inside S.

#include "bench_util.h"
#include "graph/subgraph.h"
#include "walk/diffusion_core.h"

namespace {

using namespace fairgen;
using namespace fairgen::bench;

double EmpiricalStayRate(const Graph& graph, const std::vector<NodeId>& core,
                         const std::vector<uint8_t>& mask, uint32_t t_len,
                         uint32_t trials, Rng& rng) {
  uint32_t stayed = 0;
  for (uint32_t trial = 0; trial < trials; ++trial) {
    NodeId cur = core[rng.UniformU32(static_cast<uint32_t>(core.size()))];
    bool inside = true;
    for (uint32_t t = 0; t < t_len && inside; ++t) {
      if (rng.Bernoulli(0.5)) continue;  // lazy self-step
      auto nbrs = graph.Neighbors(cur);
      if (nbrs.empty()) continue;
      cur = nbrs[rng.UniformU32(static_cast<uint32_t>(nbrs.size()))];
      inside = mask[cur];
    }
    if (inside) ++stayed;
  }
  return static_cast<double>(stayed) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(
      argc, argv,
      "Lemma 2.1 — empirical validation of the context-sampling bound");

  Table table({"dataset", "set", "|S|", "phi(S)", "|core|", "T",
               "bound 1-T*d*phi", "empirical stay", "holds"});
  const double delta = 0.9;
  const uint32_t core_t = 2;
  const uint32_t trials = options.full ? 20000 : 5000;

  for (const DatasetSpec& spec : SelectDatasets(options, true)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    Rng rng(options.run.seed ^ 0x11);

    struct Region {
      std::string label;
      std::vector<NodeId> nodes;
    };
    std::vector<Region> regions;
    Region community{"class0", {}};
    for (NodeId v = 0; v < data->graph.num_nodes(); ++v) {
      if (data->labels[v] == 0) community.nodes.push_back(v);
    }
    regions.push_back(std::move(community));
    regions.push_back({"S+", data->protected_set});

    for (const Region& region : regions) {
      auto core =
          ComputeDiffusionCore(data->graph, region.nodes, {delta, core_t});
      if (!core.ok()) continue;
      std::vector<uint8_t> mask =
          NodeMask(data->graph.num_nodes(), region.nodes);
      for (uint32_t t_len : {2u, 4u, 8u}) {
        double bound = Lemma21Bound(t_len, delta, core->conductance);
        std::string stay = "n/a";
        std::string holds = "core empty";
        if (!core->core.empty()) {
          double rate = EmpiricalStayRate(data->graph, core->core, mask,
                                          t_len, trials, rng);
          stay = FormatDouble(rate, 4);
          holds = rate + 0.02 >= bound ? "yes" : "VIOLATED";
        }
        table.AddRow({spec.name, region.label,
                      std::to_string(region.nodes.size()),
                      FormatDouble(core->conductance, 4),
                      std::to_string(core->core.size()),
                      std::to_string(t_len), FormatDouble(bound, 4), stay,
                      holds});
      }
    }
  }
  EmitTable(table, options,
            "Lemma 2.1 — P[T-step lazy walk stays in S] >= 1 - T*delta*phi");
  return FinishRun(0);
}
