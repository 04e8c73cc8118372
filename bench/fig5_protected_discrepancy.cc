// Figure 5: protected-group discrepancy R+(G, G̃, S+, f_m) on the three
// labeled datasets (BLOG, FLICKR, ACM). The paper's key result: FairGen
// consistently attains the lowest protected discrepancy.

#include "bench_util.h"
#include "eval/discrepancy_eval.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options = ParseOptions(
      argc, argv,
      "Fig. 5 — protected-group discrepancy on BLOG/FLICKR/ACM");

  ZooConfig zoo = MakeZooConfig(options);
  std::vector<std::string> header{"dataset", "model"};
  for (const auto& name : MetricNames()) header.push_back(name);
  header.push_back("mean");
  Table table(header);

  for (const DatasetSpec& spec : SelectDatasets(options, true)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    auto results = EvaluateGenerators(*data, zoo, options.run.seed);
    results.status().CheckOK();
    for (const GeneratorEvalResult& r : *results) {
      if (!r.has_protected) continue;
      std::vector<std::string> row{spec.name, r.model};
      for (double d : r.protected_group) row.push_back(FormatDouble(d, 4));
      row.push_back(FormatDouble(MeanDiscrepancy(r.protected_group), 4));
      table.AddRow(std::move(row));
    }
  }
  EmitTable(table, options,
            "Fig. 5 — protected discrepancy R+(G, G~, S+, f_m) "
            "(lower is better)");
  return FinishRun(0);
}
