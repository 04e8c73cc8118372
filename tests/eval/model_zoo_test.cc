// Dedicated tests for the zoo factory's supervision wiring.

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "eval/model_zoo.h"

namespace fairgen {
namespace {

ZooConfig TinyZoo() {
  ZooConfig cfg;
  cfg.labels_per_class = 3;
  cfg.fairgen.num_walks = 30;
  cfg.fairgen.self_paced_cycles = 1;
  cfg.fairgen.generator_epochs = 1;
  cfg.fairgen.embedding_dim = 16;
  cfg.fairgen.ffn_dim = 24;
  return cfg;
}

LabeledGraph Labeled(uint64_t seed) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_edges = 280;
  cfg.num_classes = 3;
  cfg.protected_size = 10;
  Rng rng(seed);
  auto data = GenerateSynthetic(cfg, rng);
  EXPECT_TRUE(data.ok());
  return data.MoveValueUnsafe();
}

// Every variant's checkpoints go to one directory directly under the
// checkpoint dir, even when the variant name holds a slash.
TEST(MakeFairGenTest, VariantCheckpointDirsAreSiblings) {
  LabeledGraph data = Labeled(1);
  ZooConfig zoo = TinyZoo();
  zoo.fairgen.checkpoint.dir = "ck";
  std::set<std::string> dirs;
  for (FairGenVariant variant :
       {FairGenVariant::kFull, FairGenVariant::kRandom,
        FairGenVariant::kNoSelfPaced, FairGenVariant::kNoParity}) {
    auto trainer = MakeFairGen(data, zoo, variant, 1);
    ASSERT_TRUE(trainer.ok());
    const std::string dir = (*trainer)->config().checkpoint.dir;
    const std::filesystem::path path(dir);
    EXPECT_EQ(path.parent_path(), "ck") << dir;
    EXPECT_EQ(dir.find('/', 3), std::string::npos) << dir;
    dirs.insert(dir);
  }
  EXPECT_EQ(dirs.size(), 4u);
  EXPECT_EQ(dirs.count("ck/" + data.name + "-FairGen-w-o-SPL"), 1u);
}

TEST(MakeFairGenTest, WiresFewShotSupervision) {
  LabeledGraph data = Labeled(1);
  auto trainer = MakeFairGen(data, TinyZoo(), FairGenVariant::kFull, 1);
  ASSERT_TRUE(trainer.ok());
  Rng rng(1);
  ASSERT_TRUE((*trainer)->Fit(data.graph, rng).ok());
  // The trainer saw labels: its current label assignment contains at
  // least labels_per_class * C ground-truth entries.
  uint32_t labeled = 0;
  for (int32_t y : (*trainer)->current_labels()) {
    if (y != kUnlabeled) ++labeled;
  }
  EXPECT_GE(labeled, 9u);
}

TEST(MakeFairGenTest, VariantIsApplied) {
  LabeledGraph data = Labeled(2);
  auto trainer =
      MakeFairGen(data, TinyZoo(), FairGenVariant::kNoParity, 2);
  ASSERT_TRUE(trainer.ok());
  EXPECT_EQ((*trainer)->name(), "FairGen-w/o-Parity");
  EXPECT_EQ((*trainer)->config().variant, FairGenVariant::kNoParity);
}

TEST(MakeFairGenTest, ProtectedOnlySupervision) {
  // A dataset with a protected group but no labels (not in Table I, but a
  // legal input): the factory must wire the protected set for the fair
  // assembler even without class supervision.
  LabeledGraph data = Labeled(3);
  data.labels.assign(data.graph.num_nodes(), kUnlabeled);
  data.num_classes = 0;
  auto trainer = MakeFairGen(data, TinyZoo(), FairGenVariant::kFull, 3);
  ASSERT_TRUE(trainer.ok());
  Rng rng(3);
  ASSERT_TRUE((*trainer)->Fit(data.graph, rng).ok());
  auto generated = (*trainer)->Generate(rng);
  ASSERT_TRUE(generated.ok());
  const AssemblyReport& report = (*trainer)->last_assembly_report();
  EXPECT_GT(report.protected_volume_target, 0u);
}

TEST(MakeFairGenTest, UnsupervisedDatasetWorks) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_edges = 200;
  Rng rng(4);
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());
  auto trainer = MakeFairGen(*data, TinyZoo(), FairGenVariant::kFull, 4);
  ASSERT_TRUE(trainer.ok());
  ASSERT_TRUE((*trainer)->Fit(data->graph, rng).ok());
}

TEST(MakeFairGenTest, SupervisionSeedIsDeterministic) {
  LabeledGraph data = Labeled(5);
  auto a = MakeFairGen(data, TinyZoo(), FairGenVariant::kFull, 42);
  auto b = MakeFairGen(data, TinyZoo(), FairGenVariant::kFull, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng_a(9);
  Rng rng_b(9);
  ASSERT_TRUE((*a)->Fit(data.graph, rng_a).ok());
  ASSERT_TRUE((*b)->Fit(data.graph, rng_b).ok());
  EXPECT_EQ((*a)->current_labels(), (*b)->current_labels());
}

}  // namespace
}  // namespace fairgen
