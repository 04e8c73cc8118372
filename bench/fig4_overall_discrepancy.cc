// Figure 4: overall discrepancy R(G, G̃, f_m) across six metrics and all
// seven datasets, for FairGen, its three ablations, and the five
// baselines (one table block per dataset; rows = models, columns =
// metrics; smaller is better).

#include <cstdio>

#include "bench_util.h"
#include "eval/discrepancy_eval.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options = ParseOptions(
      argc, argv, "Fig. 4 — overall discrepancy, 9 models x 7 datasets");

  ZooConfig zoo = MakeZooConfig(options);
  std::vector<std::string> header{"dataset", "model"};
  for (const auto& name : MetricNames()) header.push_back(name);
  header.push_back("mean");
  header.push_back("fit_s");
  Table table(header);

  for (const DatasetSpec& spec : SelectDatasets(options, false)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    std::fprintf(stderr, "[fig4] %s: n=%u m=%llu\n", spec.name.c_str(),
                 data->graph.num_nodes(),
                 static_cast<unsigned long long>(data->graph.num_edges()));
    auto results = EvaluateGenerators(*data, zoo, options.run.seed);
    results.status().CheckOK();
    for (const GeneratorEvalResult& r : *results) {
      std::vector<std::string> row{spec.name, r.model};
      for (double d : r.overall) row.push_back(FormatDouble(d, 4));
      row.push_back(FormatDouble(MeanDiscrepancy(r.overall), 4));
      row.push_back(FormatDouble(r.fit_seconds, 2));
      table.AddRow(std::move(row));
    }
  }
  EmitTable(table, options,
            "Fig. 4 — overall discrepancy R(G, G~, f_m) (lower is better)");
  return FinishRun(0);
}
