// Table I: statistics of the seven datasets.
//
// Prints the Table-I rows as realized by the synthetic dataset substrate
// (see DESIGN.md) at the selected scale, next to the paper's target
// numbers, so the substitution is auditable.

#include <cstdio>

#include "bench_util.h"
#include "stats/metrics.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options = ParseOptions(
      argc, argv, "Table I — dataset statistics (paper targets vs realized)");

  Table table({"dataset", "nodes(target)", "nodes", "edges(target)", "edges",
               "classes", "|S+|", "avg_deg", "gini"});
  std::vector<DatasetSpec> targets = TableIDatasets();
  std::vector<DatasetSpec> specs = SelectDatasets(options, false);
  for (const DatasetSpec& spec : specs) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    const DatasetSpec* target = nullptr;
    for (const DatasetSpec& t : targets) {
      if (t.name == spec.name) target = &t;
    }
    GraphMetrics m = ComputeMetrics(data->graph);
    table.AddRow({spec.name,
                  std::to_string(target ? target->config.num_nodes : 0),
                  std::to_string(data->graph.num_nodes()),
                  std::to_string(target ? target->config.num_edges : 0),
                  std::to_string(data->graph.num_edges()),
                  spec.config.num_classes > 0
                      ? std::to_string(spec.config.num_classes)
                      : "N/A",
                  spec.config.protected_size > 0
                      ? std::to_string(data->protected_set.size())
                      : "N/A",
                  FormatDouble(m.average_degree, 2),
                  FormatDouble(m.gini, 3)});
  }
  EmitTable(table, options,
            options.full ? "Table I (full scale)"
                         : "Table I (scale=" +
                               FormatDouble(options.EffectiveScale(), 3) +
                               ")");
  return FinishRun(0);
}
