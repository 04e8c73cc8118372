// End-to-end backend invariance: a labeled FairGen fit and release must
// come out byte-identical under the scalar and the AVX2 kernel backends.
// The per-kernel parity tests (tests/nn/kernels_test.cc) pin each kernel
// in isolation; this pins their composition through training (matmuls,
// the fused softmax+NLL, Adam) and decoding (the sampling weights).

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/kernels/kernels.h"

namespace fairgen {
namespace {

struct FitAndRelease {
  std::vector<float> parameters;  // every parameter tensor, concatenated
  std::vector<Edge> edges;        // the release, sorted (ToEdgeList)
};

FitAndRelease FitAndReleaseUnder(const LabeledGraph& data,
                                 nn::kernels::Backend backend) {
  const nn::kernels::Backend previous =
      nn::kernels::SetBackendForTesting(backend);
  FairGenConfig config;
  config.num_walks = 60;
  config.self_paced_cycles = 2;
  config.generator_epochs = 1;
  config.embedding_dim = 16;
  config.ffn_dim = 24;
  config.gen_transition_multiplier = 2.0;
  config.num_threads = 2;
  FairGenTrainer trainer(config);
  Rng rng(41);
  std::vector<int32_t> few = FewShotLabels(data, 4, rng);
  EXPECT_TRUE(
      trainer.SetSupervision(few, data.protected_set, data.num_classes).ok());
  EXPECT_TRUE(trainer.Fit(data.graph, rng).ok());

  FitAndRelease out;
  std::vector<nn::Var> params = trainer.model()->GeneratorParameters();
  for (const nn::Var& p : trainer.model()->DiscriminatorParameters()) {
    params.push_back(p);
  }
  for (const nn::Var& p : params) {
    out.parameters.insert(out.parameters.end(), p->value.data(),
                          p->value.data() + p->value.size());
  }
  Rng release_rng(42);
  Result<Graph> release = trainer.Generate(release_rng);
  EXPECT_TRUE(release.ok());
  if (release.ok()) out.edges = release->ToEdgeList();
  nn::kernels::SetBackendForTesting(previous);
  return out;
}

TEST(KernelBackendE2eTest, FitAndReleaseAreByteIdenticalAcrossBackends) {
  if (!nn::kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 unavailable on this build/CPU";
  }
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_edges = 400;
  cfg.num_classes = 3;
  cfg.protected_size = 12;
  Rng data_rng(40);
  Result<LabeledGraph> data = GenerateSynthetic(cfg, data_rng);
  ASSERT_TRUE(data.ok());

  const FitAndRelease scalar =
      FitAndReleaseUnder(*data, nn::kernels::Backend::kScalar);
  const FitAndRelease avx2 =
      FitAndReleaseUnder(*data, nn::kernels::Backend::kAvx2);
  ASSERT_FALSE(scalar.parameters.empty());
  ASSERT_EQ(scalar.parameters.size(), avx2.parameters.size());
  EXPECT_EQ(std::memcmp(scalar.parameters.data(), avx2.parameters.data(),
                        scalar.parameters.size() * sizeof(float)),
            0);
  ASSERT_FALSE(scalar.edges.empty());
  EXPECT_EQ(scalar.edges, avx2.edges);
}

}  // namespace
}  // namespace fairgen
