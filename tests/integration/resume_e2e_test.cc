// End-to-end fault-tolerance test of the checkpoint/resume pipeline:
// kills a real `fairgen` CLI training run mid-flight with SIGTERM (the
// signal handler persists the latest completed-cycle checkpoint), reruns
// it with --resume, and asserts the final saved model and the generated
// edge list are byte-identical to an uninterrupted run at the same seed —
// at 1, 2, and 4 threads (results are bit-identical across thread
// counts by the determinism contract).
//
// The CLI path is injected by tests/CMakeLists.txt as FAIRGEN_CLI_PATH.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "common/json.h"
#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "graph/edgelist.h"
#include "testing/cli_child.h"

namespace fairgen {
namespace {

class ResumeE2eTest : public testing::Test {
 protected:
  // Clears whatever an earlier process with the same pid left at the
  // path: a stale checkpoint directory would end the kill wait at once
  // and hand the resume checkpoints from another run.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_resume_e2e_" +
                       std::to_string(::getpid()) + "_" + suffix;
    std::filesystem::remove_all(path);
    return path;
  }

  // Seeded demo inputs (edges, few-shot labels, protected set).
  void WriteInputs(const std::string& edges, const std::string& labels,
                   const std::string& protected_path) {
    Rng rng(19);
    SyntheticGraphConfig cfg;
    cfg.num_nodes = 140;
    cfg.num_edges = 700;
    cfg.num_classes = 2;
    cfg.protected_size = 28;
    auto data = GenerateSynthetic(cfg, rng);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_TRUE(SaveEdgeList(data->graph, edges).ok());
    {
      std::ofstream out(labels);
      std::vector<int32_t> few_shot = FewShotLabels(*data, 5, rng);
      for (NodeId v = 0; v < data->graph.num_nodes(); ++v) {
        if (few_shot[v] != kUnlabeled) out << v << ' ' << few_shot[v] << '\n';
      }
    }
    {
      std::ofstream out(protected_path);
      for (NodeId v : data->protected_set) out << v << '\n';
    }
  }

  // Shared CLI arguments for one scenario: big enough budgets that the
  // kill below lands with training cycles still to run on most machines.
  std::vector<std::string> BaseArgs(const std::string& edges,
                                    const std::string& labels,
                                    const std::string& protected_path,
                                    const std::string& out,
                                    const std::string& model,
                                    const std::string& ckpt_dir,
                                    unsigned threads) {
    return {
        std::string(FAIRGEN_CLI_PATH),
        "generate",
        edges,
        "--model=fairgen",
        "--labels=" + labels,
        "--protected=" + protected_path,
        "--out=" + out,
        "--save-model=" + model,
        "--checkpoint-dir=" + ckpt_dir,
        "--seed=7",
        "--walks=1500",
        "--cycles=5",
        "--epochs=2",
        "--threads=" + std::to_string(threads),
    };
  }

  int RunToCompletion(const std::vector<std::string>& args) {
    std::string command;
    for (const std::string& a : args) command += a + " ";
    command += "> /dev/null 2>&1";
    int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  // Forks the CLI, waits for a checkpoint of cycle `kill_cycle` or later
  // to appear under `ckpt_dir`, then SIGTERMs it. Returns the child's wait
  // status. The child's stderr goes to `<ckpt_dir>.stderr`, which must
  // hold no sanitizer report.
  int RunAndKill(const std::vector<std::string>& args,
                 const std::string& ckpt_dir, uint32_t kill_cycle = 1) {
    const std::string child_stderr = ckpt_dir + ".stderr";
    const pid_t pid = SpawnCliChild(args, child_stderr);
    EXPECT_GE(pid, 0);
    if (pid < 0) return -1;
    // Kill as soon as that checkpoint lands. If the child finishes first
    // the wait status shows a clean exit and the caller skips the resume
    // leg.
    int wait_status = 0;
    bool reaped = false;
    for (int i = 0; i < 3000; ++i) {
      std::vector<CheckpointFile> files = ListCheckpoints(ckpt_dir);
      if (!files.empty() && files.back().cycle >= kill_cycle) break;
      if (::waitpid(pid, &wait_status, WNOHANG) == pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(pid, SIGTERM);
      EXPECT_EQ(::waitpid(pid, &wait_status, 0), pid);
    }
    EXPECT_EQ(SanitizerReports(child_stderr), "");
    return wait_status;
  }

  std::string ReadFileOrDie(const std::string& path) {
    auto bytes = ReadFileToString(path);
    EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
    return bytes.ok() ? bytes.MoveValueUnsafe() : std::string();
  }

  // The scenario: uninterrupted run vs. killed-then-resumed run must
  // produce byte-identical saved models and generated graphs.
  void CheckResumeEquivalence(unsigned threads) {
    std::string tag = "t" + std::to_string(threads) + "_";
    std::string edges = TempPath(tag + "edges.txt");
    std::string labels = TempPath(tag + "labels.txt");
    std::string protected_path = TempPath(tag + "protected.txt");
    WriteInputs(edges, labels, protected_path);

    // Uninterrupted reference.
    std::string ref_out = TempPath(tag + "ref_out.txt");
    std::string ref_model = TempPath(tag + "ref_model.fgckpt");
    std::string ref_dir = TempPath(tag + "ref_ckpt");
    ASSERT_EQ(RunToCompletion(BaseArgs(edges, labels, protected_path,
                                       ref_out, ref_model, ref_dir,
                                       threads)),
              0);

    // Killed run, then resume.
    std::string out = TempPath(tag + "out.txt");
    std::string model = TempPath(tag + "model.fgckpt");
    std::string dir = TempPath(tag + "ckpt");
    std::vector<std::string> args = BaseArgs(
        edges, labels, protected_path, out, model, dir, threads);
    int wait_status = RunAndKill(args, dir);

    if (WIFSIGNALED(wait_status)) {
      EXPECT_EQ(WTERMSIG(wait_status), SIGTERM);
      // The signal path persisted a checkpoint the resume can use
      // whenever at least one training cycle had completed.
      std::vector<std::string> resume_args = args;
      resume_args.push_back("--resume");
      ASSERT_EQ(RunToCompletion(resume_args), 0);
    } else {
      // Machine fast enough to finish before the kill: the run is
      // already complete — equivalence still must hold below.
      EXPECT_TRUE(WIFEXITED(wait_status));
      EXPECT_EQ(WEXITSTATUS(wait_status), 0);
    }

    EXPECT_EQ(ReadFileOrDie(model), ReadFileOrDie(ref_model))
        << "resumed model diverged from the uninterrupted run";
    EXPECT_EQ(ReadFileOrDie(out), ReadFileOrDie(ref_out))
        << "resumed generation diverged from the uninterrupted run";
  }
};

TEST_F(ResumeE2eTest, KilledRunResumesBitIdenticalOneThread) {
  CheckResumeEquivalence(1);
}

TEST_F(ResumeE2eTest, KilledRunResumesBitIdenticalTwoThreads) {
  CheckResumeEquivalence(2);
}

TEST_F(ResumeE2eTest, KilledRunResumesBitIdenticalFourThreads) {
  CheckResumeEquivalence(4);
}

// SIGTERM while the last training cycle runs: the emergency checkpoint
// write races the trainer's final checkpoint write, and the flush races
// the end of the run. Every checkpoint left behind must parse, the run
// manifest's exit status must match how the process really ended, and a
// resume must still reproduce the uninterrupted run.
TEST_F(ResumeE2eTest, KillDuringLastCycleLeavesConsistentRecord) {
  const std::string edges = TempPath("last_edges.txt");
  const std::string labels = TempPath("last_labels.txt");
  const std::string protected_path = TempPath("last_protected.txt");
  WriteInputs(edges, labels, protected_path);
  const std::string ref_out = TempPath("last_ref_out.txt");
  const std::string ref_model = TempPath("last_ref_model.fgckpt");
  ASSERT_EQ(RunToCompletion(BaseArgs(edges, labels, protected_path, ref_out,
                                     ref_model, TempPath("last_ref_ckpt"),
                                     2)),
            0);

  const std::string out = TempPath("last_out.txt");
  const std::string model = TempPath("last_model.fgckpt");
  const std::string dir = TempPath("last_ckpt");
  const std::string telemetry_dir = TempPath("last_telemetry");
  std::vector<std::string> args =
      BaseArgs(edges, labels, protected_path, out, model, dir, 2);
  args.push_back("--telemetry-dir=" + telemetry_dir);
  // BaseArgs runs 5 cycles; the checkpoint before cycle 4 (0-based)
  // lands as the last one starts.
  const int wait_status = RunAndKill(args, dir, /*kill_cycle=*/4);

  for (const CheckpointFile& file : ListCheckpoints(dir)) {
    EXPECT_TRUE(CheckpointReader::ReadFile(file.path).ok())
        << "torn checkpoint " << file.path;
  }
  std::vector<std::string> runs;
  for (const auto& entry :
       std::filesystem::directory_iterator(telemetry_dir)) {
    if (std::filesystem::exists(entry.path() / "run.json")) {
      runs.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(runs.size(), 1u);
  auto manifest = json::ParseFile(runs[0] + "/run.json");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  if (WIFSIGNALED(wait_status)) {
    EXPECT_EQ(WTERMSIG(wait_status), SIGTERM);
    EXPECT_EQ(manifest->GetDouble("exit_status", -1), 128.0 + SIGTERM);
    args.push_back("--resume");
    ASSERT_EQ(RunToCompletion(args), 0);
  } else {
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);
    EXPECT_EQ(manifest->GetDouble("exit_status", -1), 0.0);
  }
  EXPECT_EQ(ReadFileOrDie(model), ReadFileOrDie(ref_model))
      << "resumed model diverged from the uninterrupted run";
  EXPECT_EQ(ReadFileOrDie(out), ReadFileOrDie(ref_out))
      << "resumed generation diverged from the uninterrupted run";
}

}  // namespace
}  // namespace fairgen
