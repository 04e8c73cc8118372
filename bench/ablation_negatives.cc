// Design-choice ablation: adversarial negative refresh (Algorithm 1,
// step 6).
//
// The paper argues that feeding the generator's *own* samples back as
// negatives "gradually increases the learning difficulty" and sharpens
// g_θ. This bench trains FairGen twice per dataset — with and without the
// per-cycle negative refresh — and compares the generator loss
// trajectory, held-out walk NLL, and the resulting discrepancies.

#include "bench_util.h"
#include "core/trainer.h"
#include "stats/discrepancy.h"
#include "walk/random_walk.h"

namespace {

using namespace fairgen;
using namespace fairgen::bench;

double HeldOutNll(const FairGenTrainer& trainer, const Graph& graph,
                  uint32_t walk_length, Rng& rng) {
  RandomWalker walker(graph);
  std::vector<Walk> walks = walker.SampleUniformWalks(80, walk_length, rng);
  double total = 0.0;
  for (const Walk& w : walks) {
    total += trainer.model()
                 ->generator()
                 .WalkNll(w)
                 ->value.ScalarValue();
  }
  return total / static_cast<double>(walks.size());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(
      argc, argv,
      "Ablation — adversarial negative refresh (Algorithm 1 step 6)");

  ZooConfig zoo = MakeZooConfig(options);
  Table table({"dataset", "negatives", "J_G(first)", "J_G(last)",
               "heldout_NLL", "R_mean", "R+_mean"});

  for (const DatasetSpec& spec : SelectDatasets(options, true)) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    for (bool refresh : {true, false}) {
      FairGenConfig cfg = zoo.fairgen;
      cfg.refresh_negatives = refresh;
      FairGenTrainer trainer(cfg);
      Rng sup_rng(options.run.seed);
      std::vector<int32_t> few =
          FewShotLabels(*data, zoo.labels_per_class, sup_rng);
      trainer.SetSupervision(few, data->protected_set, data->num_classes)
          .CheckOK();
      Rng rng(options.run.seed);
      trainer.Fit(data->graph, rng).CheckOK();

      Rng eval_rng(options.run.seed ^ 0x99);
      double nll = HeldOutNll(trainer, data->graph, cfg.walk_length,
                              eval_rng);
      auto generated = trainer.Generate(rng);
      generated.status().CheckOK();
      auto overall = OverallDiscrepancy(data->graph, *generated);
      overall.status().CheckOK();
      auto prot = ProtectedDiscrepancy(data->graph, *generated,
                                       data->protected_set);
      prot.status().CheckOK();

      table.AddRow({spec.name, refresh ? "adversarial" : "static",
                    FormatDouble(trainer.loss_history().front().j_g, 4),
                    FormatDouble(trainer.loss_history().back().j_g, 4),
                    FormatDouble(nll, 4),
                    FormatDouble(MeanDiscrepancy(*overall), 4),
                    FormatDouble(MeanDiscrepancy(*prot), 4)});
    }
  }
  EmitTable(table, options,
            "Negative-refresh ablation (adversarial vs static negatives)");
  return FinishRun(0);
}
