// Figure 1: representation disparity in deep graph generative models.
//
// The paper visualizes NetGAN embeddings mixing the protected group into
// the majority as training proceeds. This bench reports the quantitative
// counterpart: the overall walk reconstruction loss R(θ) (Eq. 1) vs the
// protected-group loss R_{S+}(θ) (Eq. 2) at a series of training
// checkpoints. The paper's claim corresponds to the gap R_{S+} − R staying
// positive and typically widening.

#include "bench_util.h"
#include "eval/disparity_probe.h"

int main(int argc, char** argv) {
  using namespace fairgen;
  using namespace fairgen::bench;
  BenchOptions options = ParseOptions(
      argc, argv,
      "Fig. 1 — representation disparity of NetGAN over training");

  std::vector<DatasetSpec> specs = SelectDatasets(options, true);
  Table table({"dataset", "training_walks", "R_overall", "R_protected",
               "gap"});
  for (const DatasetSpec& spec : specs) {
    auto data = MakeDataset(spec, options.run.seed);
    data.status().CheckOK();
    DisparityProbeConfig probe;
    probe.checkpoints = options.full ? 8 : 4;
    probe.eval_walks = options.full ? 400 : 80;
    probe.netgan.train.num_walks = options.full ? 1000 : 150;
    probe.netgan.train.walk_length = 10;
    probe.netgan.dim = options.full ? 64 : 24;
    probe.netgan.hidden_dim = options.full ? 64 : 24;
    auto points = ProbeDisparity(*data, probe, options.run.seed);
    points.status().CheckOK();
    for (const DisparityPoint& p : *points) {
      table.AddRow({spec.name, std::to_string(p.iteration),
                    FormatDouble(p.overall_nll, 4),
                    FormatDouble(p.protected_nll, 4),
                    FormatDouble(p.protected_nll - p.overall_nll, 4)});
    }
  }
  EmitTable(table, options,
            "Fig. 1 — R(theta) vs R_S+(theta) over training iterations");
  return FinishRun(0);
}
