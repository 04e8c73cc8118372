// Figure 7: parameter sensitivity analysis.
//
// (a)-(c): overall loss J, generator loss J_G, and discriminator loss
// J_P + J_L + J_F + J_S over a grid of walk length T and sampling ratio r.
// (d): overall loss vs the self-paced threshold −λ = e^{−λ}-style
// confidence level (reported as the probability threshold exp(-lambda)).

#include "bench_util.h"
#include "eval/model_zoo.h"

namespace {

using namespace fairgen;
using namespace fairgen::bench;

FairGenConfig GridConfig(const ZooConfig& zoo, uint32_t walk_length,
                         double ratio) {
  FairGenConfig cfg = zoo.fairgen;
  cfg.walk_length = walk_length;
  cfg.general_ratio = ratio;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(
      argc, argv,
      "Fig. 7 — sensitivity to walk length T, sampling ratio r, and "
      "self-paced threshold lambda");

  ZooConfig zoo = MakeZooConfig(options);
  // One labeled dataset drives the sweep (paper uses one per panel).
  std::vector<DatasetSpec> specs = SelectDatasets(options, true);
  if (specs.empty()) {
    std::fprintf(stderr, "no labeled dataset selected\n");
    return FinishRun(2);
  }
  const DatasetSpec& spec = specs.front();
  auto data = MakeDataset(spec, options.run.seed);
  data.status().CheckOK();

  auto run = [&](const FairGenConfig& cfg) {
    FairGenTrainer trainer(cfg);
    Rng sup_rng(options.run.seed);
    std::vector<int32_t> few =
        FewShotLabels(*data, zoo.labels_per_class, sup_rng);
    trainer.SetSupervision(few, data->protected_set, data->num_classes)
        .CheckOK();
    Rng rng(options.run.seed);
    trainer.Fit(data->graph, rng).CheckOK();
    return trainer.losses();
  };

  // (a)-(c): T x r grid.
  std::vector<uint32_t> walk_lengths =
      options.full ? std::vector<uint32_t>{4, 6, 8, 10, 12, 14}
                   : std::vector<uint32_t>{6, 10, 14};
  std::vector<double> ratios =
      options.full ? std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}
                   : std::vector<double>{0.0, 0.5, 1.0};

  Table grid({"T", "r", "J_total", "J_G", "J_discriminator"});
  for (uint32_t t_len : walk_lengths) {
    for (double r : ratios) {
      FairGenLosses losses = run(GridConfig(zoo, t_len, r));
      grid.AddRow({std::to_string(t_len), FormatDouble(r, 2),
                   FormatDouble(losses.total(), 4),
                   FormatDouble(losses.j_g, 4),
                   FormatDouble(losses.discriminator(), 4)});
    }
  }
  EmitTable(grid, options,
            "Fig. 7(a-c) — losses vs walk length T and sampling ratio r");

  // (d): lambda sweep. The paper's x-axis is the confidence level
  // exp(-lambda) in (0, 1).
  std::vector<double> confidences =
      options.full
          ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
          : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
  Table lambda_table(
      {"confidence exp(-lambda)", "lambda", "J_total", "J_L", "J_S"});
  for (double conf : confidences) {
    FairGenConfig cfg = zoo.fairgen;
    cfg.lambda = static_cast<float>(-std::log(conf));
    cfg.lambda_growth = 1.0f + 1e-6f;  // hold lambda ~fixed for the sweep
    FairGenLosses losses = run(cfg);
    lambda_table.AddRow({FormatDouble(conf, 2), FormatDouble(cfg.lambda, 3),
                         FormatDouble(losses.total(), 4),
                         FormatDouble(losses.j_l, 4),
                         FormatDouble(losses.j_s, 4)});
  }
  EmitTable(lambda_table, options,
            "Fig. 7(d) — overall loss vs self-paced threshold");
  return FinishRun(0);
}
