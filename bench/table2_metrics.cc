// Table II: the six graph statistics, evaluated on every selected dataset.
//
// Serves both as documentation of the metric implementations and as the
// reference values that the Fig. 4/5 discrepancies are computed against.

#include "bench_util.h"
#include "stats/metrics.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options =
      ParseOptions(argc, argv, "Table II — graph statistics per dataset");

  std::vector<std::string> header{"dataset"};
  for (const auto& name : MetricNames()) header.push_back(name);
  Table table(header);
  for (const DatasetSpec& spec : SelectDatasets(options, false)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    GraphMetrics m = ComputeMetrics(data->graph);
    auto arr = m.ToArray();
    table.AddRow(spec.name, std::vector<double>(arr.begin(), arr.end()), 3);
  }
  EmitTable(table, options, "Table II — six network properties");
  return FinishRun(0);
}
