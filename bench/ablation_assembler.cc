// Design-choice ablation: the fairness-aware assembly criteria of
// Sec. II-D.
//
// Fits FairGen once per labeled dataset and assembles the *same* score
// matrix under four criteria configurations, isolating how much of the
// protected-group preservation comes from the assembler vs from training:
//   both      criterion (1) protected volume + criterion (2) min degree
//   volume    criterion (1) only
//   coverage  criterion (2) only
//   none      plain top-m thresholding (the baselines' assembly)

#include "bench_util.h"
#include "core/trainer.h"
#include "stats/discrepancy.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options = ParseOptions(
      argc, argv, "Ablation — Sec. II-D fairness-aware assembly criteria");

  ZooConfig zoo = MakeZooConfig(options);
  Table table({"dataset", "criteria", "R_mean", "R+_mean", "R+_AvgDegree",
               "R+_Triangles", "prot_volume"});

  for (const DatasetSpec& spec : SelectDatasets(options, true)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    auto trainer =
        MakeFairGen(*data, zoo, FairGenVariant::kFull, options.run.seed);
    trainer.status().CheckOK();
    Rng rng(options.run.seed);
    (*trainer)->Fit(data->graph, rng).CheckOK();

    struct Config {
      const char* label;
      AssemblerCriteria criteria;
    };
    const Config configs[] = {
        {"both", {true, true}},
        {"volume", {true, false}},
        {"coverage", {false, true}},
        {"none", {false, false}},
    };
    for (const Config& cfg : configs) {
      Rng gen_rng(options.run.seed ^ 0x77);  // same walks for every config
      auto generated = (*trainer)->GenerateWithCriteria(cfg.criteria,
                                                        gen_rng);
      generated.status().CheckOK();
      auto overall = OverallDiscrepancy(data->graph, *generated);
      overall.status().CheckOK();
      auto prot =
          ProtectedDiscrepancy(data->graph, *generated, data->protected_set);
      prot.status().CheckOK();
      table.AddRow({spec.name, cfg.label,
                    FormatDouble(MeanDiscrepancy(*overall), 4),
                    FormatDouble(MeanDiscrepancy(*prot), 4),
                    FormatDouble((*prot)[0], 4),
                    FormatDouble((*prot)[2], 4),
                    std::to_string(generated->Volume(data->protected_set))});
    }
    table.AddRow({spec.name, "(original)", "0", "0", "0", "0",
                  std::to_string(data->graph.Volume(data->protected_set))});
  }
  EmitTable(table, options,
            "Assembler ablation — protected preservation by criteria");
  return FinishRun(0);
}
