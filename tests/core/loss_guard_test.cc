// Regression tests for the trainer's loss-finiteness guard and the
// in-training fairness probe, both of which must be strictly
// observation-only: a poisoned (NaN) recorded loss batch is skipped from
// the cycle mean and counted in `trainer.nonfinite_batches` without
// moving a single training draw, and enabling `probe_every` journals one
// `probe` event per probe while leaving the generated graph bit-identical.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/metrics.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "stats/discrepancy.h"

namespace fairgen {
namespace {

FairGenConfig QuickConfig() {
  FairGenConfig cfg;
  cfg.num_walks = 60;
  cfg.self_paced_cycles = 2;
  cfg.generator_epochs = 1;
  cfg.generator_batch = 8;
  cfg.batch_size = 32;
  cfg.embedding_dim = 16;
  cfg.ffn_dim = 24;
  cfg.gen_transition_multiplier = 3.0;
  return cfg;
}

LabeledGraph MakeData(uint64_t seed) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 90;
  cfg.num_edges = 500;
  cfg.num_classes = 3;
  cfg.protected_size = 15;
  Rng rng(seed);
  auto data = GenerateSynthetic(cfg, rng);
  EXPECT_TRUE(data.ok());
  return data.MoveValueUnsafe();
}

// Stable textual fingerprint of a graph's full edge multiset.
std::string EdgeFingerprint(const Graph& graph) {
  std::ostringstream out;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    out << v << ':';
    for (NodeId u : graph.Neighbors(v)) out << ' ' << u;
    out << '\n';
  }
  return out.str();
}

// Fits on `data` with the given config and returns the generated graph's
// fingerprint.
std::string TrainAndGenerate(const LabeledGraph& data,
                             const FairGenConfig& cfg, uint64_t seed) {
  FairGenTrainer trainer(cfg);
  Rng few_rng(seed);
  EXPECT_TRUE(trainer
                  .SetSupervision(FewShotLabels(data, 4, few_rng),
                                  data.protected_set, data.num_classes)
                  .ok());
  Rng rng(seed);
  EXPECT_TRUE(trainer.Fit(data.graph, rng).ok());
  for (const FairGenLosses& l : trainer.loss_history()) {
    // The guard keeps every *recorded* cycle mean finite even when a
    // batch value was poisoned.
    EXPECT_TRUE(std::isfinite(l.total()));
  }
  auto generated = trainer.Generate(rng);
  EXPECT_TRUE(generated.ok());
  return EdgeFingerprint(*generated);
}

class LossGuardTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("FAIRGEN_INJECT_NAN_LOSS");
    events::Journal::Global().ResetForTest();
  }

  uint64_t NonFiniteBatches() {
    return metrics::MetricsRegistry::Global()
        .GetCounter("trainer.nonfinite_batches")
        .value();
  }
};

TEST_F(LossGuardTest, NanBatchIsCountedAndSkippedWithoutPerturbingRun) {
  LabeledGraph data = MakeData(4);

  ::unsetenv("FAIRGEN_INJECT_NAN_LOSS");
  const uint64_t before_clean = NonFiniteBatches();
  const std::string clean = TrainAndGenerate(data, QuickConfig(), 4);
  EXPECT_EQ(NonFiniteBatches(), before_clean);  // clean run: no guard hits

  // Poison the first recorded generator batch of cycle 1.
  ASSERT_EQ(::setenv("FAIRGEN_INJECT_NAN_LOSS", "1", 1), 0);
  const uint64_t before_injected = NonFiniteBatches();
  const std::string injected = TrainAndGenerate(data, QuickConfig(), 4);
  EXPECT_EQ(NonFiniteBatches(), before_injected + 1);

  // Observation-only: the guard touched the recorded scalar, never the
  // gradients, so the generated graph is unchanged.
  EXPECT_EQ(clean, injected);
}

TEST_F(LossGuardTest, InjectionIsReadPerFitNotCachedPerProcess) {
  LabeledGraph data = MakeData(4);
  ASSERT_EQ(::setenv("FAIRGEN_INJECT_NAN_LOSS", "0", 1), 0);
  const uint64_t before = NonFiniteBatches();
  TrainAndGenerate(data, QuickConfig(), 4);
  EXPECT_EQ(NonFiniteBatches(), before + 1);

  // Clearing the variable disarms the next Fit in the same process.
  ::unsetenv("FAIRGEN_INJECT_NAN_LOSS");
  TrainAndGenerate(data, QuickConfig(), 4);
  EXPECT_EQ(NonFiniteBatches(), before + 1);
}

TEST_F(LossGuardTest, FairnessProbeIsObservationOnly) {
  LabeledGraph data = MakeData(9);
  const std::string unprobed = TrainAndGenerate(data, QuickConfig(), 9);

  events::Journal::Global().ResetForTest();
  FairGenConfig probed_cfg = QuickConfig();
  probed_cfg.probe_every = 1;
  const std::string probed = TrainAndGenerate(data, probed_cfg, 9);

  // Identical outputs, but the probed run journaled one probe event per
  // cycle.
  EXPECT_EQ(unprobed, probed);
  EXPECT_EQ(events::Journal::Global().TypeCount(events::Type::kProbe), 2u);
}

TEST_F(LossGuardTest, FairnessProbeRecordsProtectedDiscrepancyOfItsRelease) {
  LabeledGraph data = MakeData(9);
  ASSERT_FALSE(data.protected_set.empty());
  FairGenConfig cfg = QuickConfig();
  cfg.probe_every = 1;
  events::Journal::Global().ResetForTest();
  FairGenTrainer trainer(cfg);
  Rng few_rng(9);
  ASSERT_TRUE(trainer
                  .SetSupervision(FewShotLabels(data, 4, few_rng),
                                  data.protected_set, data.num_classes)
                  .ok());
  Rng rng(9);
  ASSERT_TRUE(trainer.Fit(data.graph, rng).ok());

  // The last probe ran at the end of the final cycle, so the fitted model
  // is the one it read: re-reading it rebuilds the same release.
  const uint32_t last = cfg.self_paced_cycles - 1;
  FairGenTrainer::FairnessProbe probe = trainer.ReadFairnessProbe(last);
  ASSERT_TRUE(probe.release.ok()) << probe.release.status().ToString();
  auto rplus =
      ProtectedDiscrepancy(data.graph, *probe.release, data.protected_set);
  ASSERT_TRUE(rplus.ok());

  const std::string log = testing::TempDir() + "/fairgen_probe_events_" +
                          std::to_string(::getpid()) + ".jsonl";
  std::remove(log.c_str());
  ASSERT_TRUE(events::Journal::Global().FlushTo(log).ok());
  auto journal = events::ReadJournalFile(log);
  std::remove(log.c_str());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->malformed_lines.empty());
  std::vector<double> epochs;
  for (const events::Event& record : journal->events) {
    if (record.type != events::Type::kProbe) continue;
    epochs.push_back(record.epoch);
    const double* field = record.Field("protected_discrepancy_mean");
    ASSERT_NE(field, nullptr) << record.epoch;
    if (record.epoch == last) {
      EXPECT_EQ(*field, MeanDiscrepancy(*rplus));
    }
  }
  EXPECT_EQ(epochs, (std::vector<double>{0, 1}));
}

}  // namespace
}  // namespace fairgen
