// The run front end both `fairgen` and the paper benches share
// (core/run_options.h), driven through the real binaries:
//  - one table of malformed run-flag values and cross-flag rules, each a
//    flag error (exit 2) in the CLI and in a bench alike, before any
//    input is read;
//  - a bench killed by a fatal watchdog rule leaves the emergency
//    checkpoint of its FairGen fit, and --resume continues from it;
//  - a bench that fails records its real exit status in run.json, so
//    fairgen_doctor calls the run failed.
//
// Binary paths are injected by tests/CMakeLists.txt as compile
// definitions (FAIRGEN_CLI_PATH, FAIRGEN_DOCTOR_PATH,
// FAIRGEN_TABLE1_PATH, FAIRGEN_FIG5_PATH, FAIRGEN_FIG7_PATH).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/telemetry.h"
#include "core/checkpoint.h"

namespace fairgen {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct FlagCase {
  const char* flags;
  const char* error;  // expected in the binary's output
};

class RunFrontEndTest : public testing::Test {
 protected:
  // Per-process names (ctest -j runs tests as concurrent processes),
  // cleared first so nothing an earlier process left is mistaken for
  // this run's.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_run_front_end_" +
                       std::to_string(::getpid()) + "_" + suffix;
    std::filesystem::remove_all(path);
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::filesystem::remove_all(path);
  }

  // Runs `command` through the shell with stdout/stderr captured into
  // *out (when non-null); returns the exit code, 128+sig on death by a
  // signal.
  int Run(const std::string& command, std::string* out = nullptr) {
    const std::string out_path = TempPath("out.txt");
    const int raw =
        std::system((command + " > " + out_path + " 2>&1").c_str());
    if (out != nullptr) *out = ReadFile(out_path);
    return WIFSIGNALED(raw) ? 128 + WTERMSIG(raw) : WEXITSTATUS(raw);
  }

  // Runs each case through the CLI and a bench. The CLI input does not
  // exist, so a flag that slipped through would fail the run with exit
  // 1, not 2.
  template <size_t N>
  void ExpectFlagErrors(const FlagCase (&cases)[N]) {
    for (const FlagCase& c : cases) {
      for (const std::string& binary :
           {std::string(FAIRGEN_CLI_PATH) +
                " generate missing_edges.txt --out=unused.txt",
            std::string(FAIRGEN_TABLE1_PATH)}) {
        std::string out;
        EXPECT_EQ(Run(binary + " " + c.flags, &out), 2)
            << binary << " " << c.flags << "\n" << out;
        EXPECT_NE(out.find(c.error), std::string::npos)
            << binary << " " << c.flags << "\n" << out;
      }
    }
  }

  std::vector<std::string> paths_;
};

// Malformed values: numbers parse strictly and whole, and a value out of
// a flag's range is an error, not a run that fails later.
const FlagCase kMalformed[] = {
    {"--seed=junk", "bad --seed"},
    {"--seed=99999999999999999999999", "out of range"},
    {"--threads=-2", "bad --threads"},
    {"--threads=4294967296", "bad --threads"},
    {"--telemetry-interval-ms=1x", "bad --telemetry-interval-ms"},
    {"--profile-hz=0", "bad --profile-hz"},
    {"--profile-hz=10001", "bad --profile-hz"},
    {"--rss-budget-mb=0", "bad --rss-budget-mb"},
    {"--probe-every=", "bad --probe-every"},
    {"--checkpoint-every=0", "bad --checkpoint-every"},
    {"--checkpoint-every=abc", "bad --checkpoint-every"},
    {"--checkpoint-retain=0", "bad --checkpoint-retain"},
    {"--log-level=loud", "bad --log-level"},
    {"--watchdog=1", "unknown flag"},
    // The registry's one export is the telemetry snapshot.json.
    {"--metrics-out=m.json", "unknown flag"},
};

// Cross-flag rules. A probe's only record is its journal event, which
// persists only in a telemetry run dir.
const FlagCase kCrossFlag[] = {
    {"--watchdog", "--watchdog requires --telemetry-dir"},
    {"--probe-every=1", "--probe-every requires --telemetry-dir"},
    {"--rss-budget-mb=64", "--rss-budget-mb requires --watchdog"},
    {"--telemetry-dir=unused --rss-budget-mb=64",
     "--rss-budget-mb requires --watchdog"},
    {"--resume", "--resume requires --checkpoint-dir"},
};

TEST_F(RunFrontEndTest, MalformedRunFlagsAreFlagErrorsInCliAndBench) {
  ExpectFlagErrors(kMalformed);
}

TEST_F(RunFrontEndTest, CrossFlagRulesAreFlagErrorsInCliAndBench) {
  ExpectFlagErrors(kCrossFlag);
}

// The run flags are documented once, in both binaries' help.
TEST_F(RunFrontEndTest, BothBinariesPrintTheSharedRunFlagHelp) {
  std::string cli_help;
  std::string bench_help;
  EXPECT_EQ(Run(std::string(FAIRGEN_CLI_PATH), &cli_help), 2);
  EXPECT_EQ(Run(std::string(FAIRGEN_TABLE1_PATH) + " --help", &bench_help),
            0);
  const std::string block = cli_help.substr(cli_help.find("  --seed=<n>"));
  EXPECT_NE(block.find("--checkpoint-retain=<n>"), std::string::npos);
  EXPECT_NE(bench_help.find(block), std::string::npos) << bench_help;
}

// A fatal watchdog rule kills a bench after FairGen's first cycle. The
// signal flush writes that fit's emergency checkpoint (FairGen lists
// itself while it trains), and a --resume run continues from it.
TEST_F(RunFrontEndTest, BenchKilledByWatchdogLeavesResumableCheckpoint) {
  const std::string dir = TempPath("fig5");
  std::filesystem::create_directories(dir);
  const std::string fig5 = "cd " + dir + " && " +
                           std::string(FAIRGEN_FIG5_PATH) +
                           " --datasets=ACM --scale=0.02"
                           " --checkpoint-dir=ck --checkpoint-every=4";

  EXPECT_EQ(Run(fig5 +
                " --telemetry-dir=tel --telemetry-interval-ms=20"
                " --watchdog --rss-budget-mb=1"),
            128 + SIGTERM);
  std::vector<CheckpointFile> files =
      ListCheckpoints(dir + "/ck/ACM-FairGen");
  ASSERT_EQ(files.size(), 1u) << "no emergency checkpoint";
  EXPECT_EQ(files[0].cycle, 1u);
  EXPECT_TRUE(CheckpointReader::ReadFile(files[0].path).ok());

  std::string resumed;
  ASSERT_EQ(Run(fig5 + " --resume --log-level=info", &resumed), 0)
      << resumed;
  EXPECT_NE(resumed.find("resumed from ck/ACM-FairGen/" +
                         CheckpointFileName(1)),
            std::string::npos)
      << resumed;
  files = ListCheckpoints(dir + "/ck/ACM-FairGen");
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(files.back().cycle, 4u);
}

// A bench that exits with an error records that status in its run
// manifest, so the doctor never calls the run healthy.
TEST_F(RunFrontEndTest, FailedBenchRecordsItsExitStatus) {
  const std::string telemetry_dir = TempPath("fig7_runs");
  EXPECT_EQ(Run(std::string(FAIRGEN_FIG7_PATH) +
                " --datasets=NOPE --telemetry-dir=" + telemetry_dir),
            2);
  std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
  ASSERT_EQ(runs.size(), 1u);
  auto manifest = json::ParseFile(runs[0] + "/run.json");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 2.0);

  std::string doctor;
  EXPECT_EQ(Run(std::string(FAIRGEN_DOCTOR_PATH) + " " + runs[0], &doctor),
            2);
  EXPECT_EQ(doctor.find("healthy"), std::string::npos) << doctor;
  EXPECT_NE(doctor.find("failed"), std::string::npos) << doctor;
}

}  // namespace
}  // namespace fairgen
