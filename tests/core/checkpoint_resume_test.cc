// Trainer-level fault-tolerance tests: a training run interrupted at a
// cycle boundary and resumed from its checkpoint directory must replay
// the uninterrupted run bit for bit (parameters, labels, loss history,
// generated graph). Also covers the failure modes: corrupted newest
// checkpoint (fall back to an older one), every checkpoint corrupted
// (descriptive error), fingerprint mismatches, rotation, cadence, the
// emergency (signal-path) checkpoint, and the checkpoint metrics.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/fileio.h"
#include "common/json.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"

namespace fairgen {
namespace {

// Three cycles so a resume from the cycle-1 checkpoint still has real
// training work left to replay.
FairGenConfig ResumeConfig() {
  FairGenConfig cfg;
  cfg.num_walks = 50;
  cfg.self_paced_cycles = 3;
  cfg.generator_epochs = 1;
  cfg.embedding_dim = 16;
  cfg.ffn_dim = 24;
  cfg.gen_transition_multiplier = 2.0;
  return cfg;
}

struct Fixture {
  LabeledGraph data;
  std::vector<int32_t> few_shot;
};

Fixture MakeFixture() {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 70;
  cfg.num_edges = 350;
  cfg.num_classes = 2;
  cfg.protected_size = 10;
  Rng rng(4);
  auto data = GenerateSynthetic(cfg, rng);
  EXPECT_TRUE(data.ok());
  Fixture fixture{data.MoveValueUnsafe(), {}};
  Rng sup_rng(4);
  fixture.few_shot = FewShotLabels(fixture.data, 4, sup_rng);
  return fixture;
}

std::unique_ptr<FairGenTrainer> NewTrainer(const FairGenConfig& cfg,
                                           const Fixture& fixture) {
  auto trainer = std::make_unique<FairGenTrainer>(cfg);
  EXPECT_TRUE(trainer
                  ->SetSupervision(fixture.few_shot,
                                   fixture.data.protected_set,
                                   fixture.data.num_classes)
                  .ok());
  return trainer;
}

Status FitSeeded(FairGenTrainer& trainer, const Graph& graph,
                 uint64_t seed) {
  Rng rng(seed);
  return trainer.Fit(graph, rng);
}

std::string UniqueDir(const char* name) {
  std::string dir = testing::TempDir() + "/fairgen_resume_" +
                    std::to_string(::getpid()) + "_" + name;
  // An earlier process with the same pid may have left checkpoints here.
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(MakeDirectories(dir).ok());
  return dir;
}

// The trained state as bytes: the model-export checkpoint holds the
// fingerprint, every parameter tensor, and the label assignment, and
// contains no timestamps — byte equality is state equality.
std::string ExportBytes(const FairGenTrainer& trainer) {
  std::string path = testing::TempDir() + "/fairgen_resume_export_" +
                     std::to_string(::getpid()) + ".fgckpt";
  EXPECT_TRUE(trainer.SaveCheckpoint(path).ok());
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return bytes.MoveValueUnsafe();
}

void ExpectSameTrainedState(FairGenTrainer& actual,
                            FairGenTrainer& expected) {
  EXPECT_EQ(ExportBytes(actual), ExportBytes(expected));
  ASSERT_EQ(actual.loss_history().size(), expected.loss_history().size());
  for (size_t i = 0; i < expected.loss_history().size(); ++i) {
    EXPECT_EQ(actual.loss_history()[i].total(),
              expected.loss_history()[i].total())
        << "cycle " << i;
  }
  EXPECT_EQ(actual.num_pseudo_labeled(), expected.num_pseudo_labeled());
  EXPECT_EQ(actual.current_labels(), expected.current_labels());
  Rng gen_a(42), gen_b(42);
  auto graph_a = actual.Generate(gen_a);
  auto graph_b = expected.Generate(gen_b);
  ASSERT_TRUE(graph_a.ok());
  ASSERT_TRUE(graph_b.ok());
  EXPECT_EQ(graph_a->ToEdgeList(), graph_b->ToEdgeList());
}

void TruncateFile(const std::string& path, size_t keep) {
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFileAtomic(path, bytes->substr(0, keep)).ok());
}

// Rewrites one section's payload in place, keeping the container valid.
void ReplaceSection(const std::string& path, const std::string& name,
                    const std::string& payload) {
  auto reader = CheckpointReader::ReadFile(path);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (const std::string& section : reader->SectionNames()) {
    auto original = reader->Section(section);
    ASSERT_TRUE(original.ok());
    writer.AddSection(section, section == name ? payload : **original);
  }
  ASSERT_TRUE(writer.WriteFile(path).ok());
}

// Enabling checkpointing must not perturb training: the serializer never
// draws from the run RNG, so a checkpointed run and a plain run at the
// same seed produce identical models.
TEST(CheckpointResumeTest, CheckpointingDoesNotChangeTheRun) {
  Fixture fixture = MakeFixture();
  auto plain = NewTrainer(ResumeConfig(), fixture);
  ASSERT_TRUE(FitSeeded(*plain, fixture.data.graph, 7).ok());

  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("nochange");
  auto checkpointed = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*checkpointed, fixture.data.graph, 7).ok());

  ExpectSameTrainedState(*checkpointed, *plain);
}

TEST(CheckpointResumeTest, ResumeMatchesUninterruptedRun) {
  Fixture fixture = MakeFixture();

  // Uninterrupted reference run.
  FairGenConfig ref_cfg = ResumeConfig();
  ref_cfg.checkpoint.dir = UniqueDir("ref");
  auto reference = NewTrainer(ref_cfg, fixture);
  ASSERT_TRUE(FitSeeded(*reference, fixture.data.graph, 7).ok());

  // "Interrupted" run: a full run's checkpoint directory with every file
  // after the first cycle removed — the state of a run killed during
  // cycle 2.
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("interrupted");
  cfg.checkpoint.retain = 10;
  {
    auto interrupted = NewTrainer(cfg, fixture);
    ASSERT_TRUE(FitSeeded(*interrupted, fixture.data.graph, 7).ok());
  }
  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_EQ(files.size(), 3u);
  for (size_t i = 1; i < files.size(); ++i) {
    ASSERT_EQ(std::remove(files[i].path.c_str()), 0);
  }

  cfg.checkpoint.resume = true;
  auto resumed = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*resumed, fixture.data.graph, 7).ok());

  ExpectSameTrainedState(*resumed, *reference);
}

TEST(CheckpointResumeTest, ResumeFromFinalCheckpointSkipsTraining) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("final");
  auto reference = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*reference, fixture.data.graph, 7).ok());

  // The newest checkpoint is the final-cycle one: the resumed run has
  // nothing left to train but must land in the identical state.
  cfg.checkpoint.resume = true;
  auto resumed = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*resumed, fixture.data.graph, 7).ok());
  ExpectSameTrainedState(*resumed, *reference);
}

TEST(CheckpointResumeTest, CorruptNewestFallsBackToOlder) {
  Fixture fixture = MakeFixture();
  FairGenConfig ref_cfg = ResumeConfig();
  ref_cfg.checkpoint.dir = UniqueDir("fallback_ref");
  auto reference = NewTrainer(ref_cfg, fixture);
  ASSERT_TRUE(FitSeeded(*reference, fixture.data.graph, 7).ok());

  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("fallback");
  cfg.checkpoint.retain = 10;
  {
    auto full = NewTrainer(cfg, fixture);
    ASSERT_TRUE(FitSeeded(*full, fixture.data.graph, 7).ok());
  }
  // Truncate the final checkpoint mid-file (a crash during a non-atomic
  // copy, say); the cycle-2 checkpoint is still intact.
  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_EQ(files.size(), 3u);
  TruncateFile(files[2].path, 40);

  cfg.checkpoint.resume = true;
  auto resumed = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*resumed, fixture.data.graph, 7).ok());
  ExpectSameTrainedState(*resumed, *reference);
}

TEST(CheckpointResumeTest, AllCheckpointsCorruptIsDescriptiveError) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("allcorrupt");
  cfg.checkpoint.retain = 10;
  {
    auto full = NewTrainer(cfg, fixture);
    ASSERT_TRUE(FitSeeded(*full, fixture.data.graph, 7).ok());
  }
  for (const CheckpointFile& file : ListCheckpoints(cfg.checkpoint.dir)) {
    TruncateFile(file.path, 16);  // header only: magic + version
  }

  cfg.checkpoint.resume = true;
  auto resumed = NewTrainer(cfg, fixture);
  Status status = FitSeeded(*resumed, fixture.data.graph, 7);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("no usable checkpoint"),
            std::string::npos)
      << status.ToString();
}

// Each corruption class on the sectioned format must be rejected with a
// descriptive error and fall through to older checkpoints — never crash,
// never commit a partial restore. With a single (corrupt) checkpoint in
// the directory every variant surfaces as the all-rejected error.
TEST(CheckpointResumeTest, RejectsEveryCorruptionClass) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("classes");
  {
    auto full = NewTrainer(cfg, fixture);
    ASSERT_TRUE(FitSeeded(*full, fixture.data.graph, 7).ok());
  }
  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_FALSE(files.empty());
  auto pristine = ReadFileToString(files.back().path);
  ASSERT_TRUE(pristine.ok());
  const std::string& path = files.back().path;
  // Reduce to a single checkpoint so there is nothing to fall back to.
  for (size_t i = 0; i + 1 < files.size(); ++i) {
    ASSERT_EQ(std::remove(files[i].path.c_str()), 0);
  }

  cfg.checkpoint.resume = true;
  auto expect_rejected = [&](const char* what) {
    auto resumed = NewTrainer(cfg, fixture);
    Status status = FitSeeded(*resumed, fixture.data.graph, 7);
    EXPECT_TRUE(status.IsInvalidArgument())
        << what << ": " << status.ToString();
  };

  // Trailing garbage after the last section.
  ASSERT_TRUE(WriteFileAtomic(path, *pristine + "xyz").ok());
  expect_rejected("trailing bytes");

  // A parameter tensor cut mid-payload (container still well-formed).
  {
    ASSERT_TRUE(WriteFileAtomic(path, *pristine).ok());
    auto reader = CheckpointReader::ReadFile(path);
    ASSERT_TRUE(reader.ok());
    auto params = reader->Section(ckpt::kSectionParams);
    ASSERT_TRUE(params.ok());
    ReplaceSection(path, ckpt::kSectionParams,
                   (*params)->substr(0, (*params)->size() - 4));
    expect_rejected("mid-tensor cut");
  }

  // A parameter count or tensor shape that disagrees with the model
  // (section payload: u64 count, then per tensor u64 rows, u64 cols and
  // the floats).
  {
    ASSERT_TRUE(WriteFileAtomic(path, *pristine).ok());
    auto reader = CheckpointReader::ReadFile(path);
    ASSERT_TRUE(reader.ok());
    auto params = reader->Section(ckpt::kSectionParams);
    ASSERT_TRUE(params.ok());
    std::string corrupted = **params;
    ASSERT_GT(corrupted.size(), 24u);
    ++corrupted[0];
    ReplaceSection(path, ckpt::kSectionParams, corrupted);
    expect_rejected("parameter count mismatch");

    corrupted = **params;
    ASSERT_NE(corrupted.substr(8, 8), corrupted.substr(16, 8));
    std::swap_ranges(corrupted.begin() + 8, corrupted.begin() + 16,
                     corrupted.begin() + 16);  // rows <-> cols
    ReplaceSection(path, ckpt::kSectionParams, corrupted);
    expect_rejected("shape mismatch");
  }

  // A label outside [-1, num_classes) — bit rot in the labels section.
  {
    ASSERT_TRUE(WriteFileAtomic(path, *pristine).ok());
    auto reader = CheckpointReader::ReadFile(path);
    ASSERT_TRUE(reader.ok());
    auto labels = reader->Section(ckpt::kSectionLabels);
    ASSERT_TRUE(labels.ok());
    std::string corrupted = **labels;
    ASSERT_GT(corrupted.size(), 12u);  // u64 count + first i32
    corrupted[8] = 99;  // first label -> 99, far beyond num_classes
    corrupted[9] = corrupted[10] = corrupted[11] = 0;
    ReplaceSection(path, ckpt::kSectionLabels, corrupted);
    expect_rejected("label out of range");
  }

  // A truncated container (mid section table).
  ASSERT_TRUE(WriteFileAtomic(path, pristine->substr(0, 40)).ok());
  expect_rejected("truncated container");

  // The pristine file still resumes — the harness above rejected for the
  // injected corruption, not for some environmental reason.
  ASSERT_TRUE(WriteFileAtomic(path, *pristine).ok());
  auto resumed = NewTrainer(cfg, fixture);
  EXPECT_TRUE(FitSeeded(*resumed, fixture.data.graph, 7).ok());
}

TEST(CheckpointResumeTest, RejectsFingerprintMismatch) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("fingerprint");
  {
    auto full = NewTrainer(cfg, fixture);
    ASSERT_TRUE(FitSeeded(*full, fixture.data.graph, 7).ok());
  }

  FairGenConfig other = ResumeConfig();
  other.embedding_dim = 32;  // different architecture
  other.ffn_dim = 48;
  other.checkpoint.dir = cfg.checkpoint.dir;
  other.checkpoint.resume = true;
  auto resumed = NewTrainer(other, fixture);
  Status status = FitSeeded(*resumed, fixture.data.graph, 7);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("fingerprint"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointResumeTest, RotationBoundsDiskUse) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("rotation");
  cfg.checkpoint.retain = 2;
  auto trainer = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*trainer, fixture.data.graph, 7).ok());

  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].cycle, 2u);
  EXPECT_EQ(files[1].cycle, 3u);
}

TEST(CheckpointResumeTest, CadenceSkipsCyclesButAlwaysWritesFinal) {
  Fixture fixture = MakeFixture();
  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("cadence");
  cfg.checkpoint.every_cycles = 2;
  cfg.checkpoint.retain = 10;
  auto trainer = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*trainer, fixture.data.graph, 7).ok());

  // Cycle boundaries 1, 2, 3 with every=2: files at 2 and (final) 3.
  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].cycle, 2u);
  EXPECT_EQ(files[1].cycle, 3u);
}

TEST(CheckpointResumeTest, EmergencyCheckpointPersistsLatestBoundary) {
  Fixture fixture = MakeFixture();

  // Safe no-op before any training state exists.
  FairGenTrainer idle(ResumeConfig());
  idle.WriteEmergencyCheckpoint();

  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("emergency");
  auto trainer = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*trainer, fixture.data.graph, 7).ok());

  // Wipe the directory; the emergency path (what the CLI's SIGTERM
  // handler calls) re-persists the last completed-cycle state.
  for (const CheckpointFile& file : ListCheckpoints(cfg.checkpoint.dir)) {
    ASSERT_EQ(std::remove(file.path.c_str()), 0);
  }
  trainer->WriteEmergencyCheckpoint();

  std::vector<CheckpointFile> files = ListCheckpoints(cfg.checkpoint.dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].cycle, 3u);

  // And the file it wrote is a fully usable checkpoint.
  cfg.checkpoint.resume = true;
  auto resumed = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*resumed, fixture.data.graph, 7).ok());
  ExpectSameTrainedState(*resumed, *trainer);
}

// Each checkpoint write is recorded once, as a `checkpoint` journal
// event carrying the file it wrote, its cycle and its size.
TEST(CheckpointResumeTest, WritesAreJournaled) {
  Fixture fixture = MakeFixture();
  events::Journal& journal = events::Journal::Global();
  journal.ResetForTest();

  FairGenConfig cfg = ResumeConfig();
  cfg.checkpoint.dir = UniqueDir("journal");
  auto trainer = NewTrainer(cfg, fixture);
  ASSERT_TRUE(FitSeeded(*trainer, fixture.data.graph, 7).ok());

  const std::string log = cfg.checkpoint.dir + "/events.jsonl";
  ASSERT_TRUE(journal.FlushTo(log).ok());
  journal.ResetForTest();
  std::vector<double> cycles;
  std::ifstream in(log);
  for (std::string line; std::getline(in, line);) {
    Result<json::Value> record = json::Parse(line);
    ASSERT_TRUE(record.ok()) << line;
    if (record->GetString("type") != "checkpoint") continue;
    const double cycle = record->GetDouble("epoch", -1);
    cycles.push_back(cycle);
    EXPECT_EQ(record->GetString("message"),
              cfg.checkpoint.dir + "/" +
                  CheckpointFileName(static_cast<uint32_t>(cycle)));
    const json::Value* fields = record->Find("fields");
    ASSERT_NE(fields, nullptr) << line;
    EXPECT_GT(fields->GetDouble("bytes", 0), 0.0) << line;
  }
  EXPECT_EQ(cycles, (std::vector<double>{1, 2, 3}));
}

}  // namespace
}  // namespace fairgen
