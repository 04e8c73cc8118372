#include <cstdio>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"

namespace fairgen {
namespace {

FairGenConfig QuickConfig() {
  FairGenConfig cfg;
  cfg.num_walks = 50;
  cfg.self_paced_cycles = 2;
  cfg.generator_epochs = 1;
  cfg.embedding_dim = 16;
  cfg.ffn_dim = 24;
  cfg.gen_transition_multiplier = 2.0;
  return cfg;
}

LabeledGraph MakeData(uint64_t seed) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 70;
  cfg.num_edges = 350;
  cfg.num_classes = 2;
  cfg.protected_size = 10;
  Rng rng(seed);
  auto data = GenerateSynthetic(cfg, rng);
  EXPECT_TRUE(data.ok());
  return data.MoveValueUnsafe();
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/fairgen_ckpt_" + name + ".bin";
}

// The byte primitives FGCKPT2 payloads are built from: tensors appended
// with AppendTensor read back bit for bit, and reading past the end of
// the buffer is an error, not a crash.
TEST(SerializeTest, RoundTripsTensors) {
  Rng rng(1);
  const nn::Tensor a = nn::Tensor::Randn(3, 4, 1.0f, rng);
  const nn::Tensor b = nn::Tensor::Randn(1, 7, 1.0f, rng);
  std::string bytes;
  nn::AppendTensor(bytes, a);
  nn::AppendTensor(bytes, b);
  nn::ByteReader reader(bytes);
  for (const nn::Tensor* want : {&a, &b}) {
    auto got = reader.ReadTensor();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->SameShape(*want));
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(got->data()[i], want->data()[i]);
    }
  }
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ReadTensor().status().IsInvalidArgument());
}

TEST(CheckpointTest, RequiresPrepare) {
  FairGenTrainer trainer(QuickConfig());
  EXPECT_TRUE(
      trainer.SaveCheckpoint(TempPath("x")).IsFailedPrecondition());
  EXPECT_TRUE(
      trainer.LoadCheckpoint(TempPath("x")).IsFailedPrecondition());
}

TEST(CheckpointTest, RestoredModelGeneratesIdentically) {
  LabeledGraph data = MakeData(4);
  Rng sup_rng(4);
  std::vector<int32_t> few = FewShotLabels(data, 4, sup_rng);

  // Train and checkpoint.
  FairGenTrainer trained(QuickConfig());
  ASSERT_TRUE(
      trained.SetSupervision(few, data.protected_set, data.num_classes)
          .ok());
  Rng fit_rng(4);
  ASSERT_TRUE(trained.Fit(data.graph, fit_rng).ok());
  std::string path = TempPath("model");
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());

  // Fresh trainer: Prepare (same config & graph) + LoadCheckpoint.
  FairGenTrainer restored(QuickConfig());
  ASSERT_TRUE(
      restored.SetSupervision(few, data.protected_set, data.num_classes)
          .ok());
  Rng prep_rng(999);  // different init — overwritten by the checkpoint
  ASSERT_TRUE(restored.Prepare(data.graph, prep_rng).ok());
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());

  // Identical generation RNG -> identical graphs.
  Rng gen_a(42);
  Rng gen_b(42);
  auto graph_a = trained.Generate(gen_a);
  auto graph_b = restored.Generate(gen_b);
  ASSERT_TRUE(graph_a.ok());
  ASSERT_TRUE(graph_b.ok());
  EXPECT_EQ(graph_a->ToEdgeList(), graph_b->ToEdgeList());
  std::remove(path.c_str());
}

// Satellite of the label-serialization fix: labels travel as native
// int32 and every entry must be kUnlabeled or a valid class id — a
// corrupted labels section is rejected before anything is committed.
TEST(CheckpointTest, LoadRejectsOutOfRangeLabel) {
  LabeledGraph data = MakeData(6);
  Rng sup_rng(6);
  std::vector<int32_t> few = FewShotLabels(data, 4, sup_rng);
  FairGenTrainer trained(QuickConfig());
  ASSERT_TRUE(
      trained.SetSupervision(few, data.protected_set, data.num_classes)
          .ok());
  Rng fit_rng(6);
  ASSERT_TRUE(trained.Fit(data.graph, fit_rng).ok());
  std::string path = TempPath("badlabel");
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());

  // Rewrite the labels section with the first entry out of range.
  auto reader = CheckpointReader::ReadFile(path);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (const std::string& name : reader->SectionNames()) {
    auto payload = reader->Section(name);
    ASSERT_TRUE(payload.ok());
    std::string bytes = **payload;
    if (name == ckpt::kSectionLabels) {
      ASSERT_GT(bytes.size(), 12u);  // u64 count + first i32
      bytes[8] = 99;  // far beyond num_classes
      bytes[9] = bytes[10] = bytes[11] = 0;
    }
    writer.AddSection(name, bytes);
  }
  ASSERT_TRUE(writer.WriteFile(path).ok());

  Status status = trained.LoadCheckpoint(path);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("label"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsDifferentArchitecture) {
  LabeledGraph data = MakeData(5);
  FairGenTrainer trained(QuickConfig());
  Rng rng(5);
  ASSERT_TRUE(trained.Fit(data.graph, rng).ok());
  std::string path = TempPath("arch");
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());

  FairGenConfig other_cfg = QuickConfig();
  other_cfg.embedding_dim = 32;  // different width
  other_cfg.ffn_dim = 48;
  FairGenTrainer other(other_cfg);
  Rng rng2(5);
  ASSERT_TRUE(other.Prepare(data.graph, rng2).ok());
  EXPECT_TRUE(other.LoadCheckpoint(path).IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairgen
