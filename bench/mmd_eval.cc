// Extension evaluation: distribution-level comparison of generated graphs
// via maximum mean discrepancy (GraphRNN-style), complementing the
// paper's scalar Table-II discrepancies of Figs. 4–5.
//
// For every zoo model and labeled dataset, reports MMD² between original
// and generated degree / local-clustering distributions, overall and on
// the protected subgraph.

#include "bench_util.h"
#include "graph/subgraph.h"
#include "stats/mmd.h"

namespace {

using namespace fairgen;
using namespace fairgen::bench;

std::string MmdCell(const Result<double>& mmd) {
  return mmd.ok() ? FormatDouble(*mmd, 4) : std::string("n/a");
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(
      argc, argv,
      "Extension — MMD of degree/clustering distributions per model");

  ZooConfig zoo = MakeZooConfig(options);
  Table table({"dataset", "model", "degree_mmd", "clustering_mmd",
               "protected_degree_mmd"});
  for (const DatasetSpec& spec : SelectDatasets(options, true)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    auto zoo_models = MakeModelZoo(*data, zoo, options.run.seed);
    zoo_models.status().CheckOK();
    for (auto& model : *zoo_models) {
      Rng rng(options.run.seed);
      model->Fit(data->graph, rng).CheckOK();
      auto generated = model->Generate(rng);
      generated.status().CheckOK();

      auto degree = DegreeMmd(data->graph, *generated);
      auto clustering = ClusteringMmd(data->graph, *generated);
      auto orig_sub = InducedSubgraph(data->graph, data->protected_set);
      auto gen_sub = InducedSubgraph(*generated, data->protected_set);
      orig_sub.status().CheckOK();
      gen_sub.status().CheckOK();
      auto prot_degree = DegreeMmd(orig_sub->graph, gen_sub->graph);

      table.AddRow({spec.name, model->name(), MmdCell(degree),
                    MmdCell(clustering), MmdCell(prot_degree)});
    }
  }
  EmitTable(table, options,
            "MMD^2 between original and generated distributions "
            "(lower is better)");
  return FinishRun(0);
}
