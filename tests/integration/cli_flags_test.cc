// Regression tests for strict CLI input parsing: every numeric flag and
// every line of the label/node-set input files must parse fully or fail
// loudly. These pin real bugs — the old null-endptr strtol/strtoul calls
// turned a non-numeric port flag into port 0, wrapped negative values for
// unsigned flags into huge numbers, and silently rewrote node 0's label
// when a label file carried a non-numeric node id.
//
// The CLI binary path is injected by tests/CMakeLists.txt as the
// FAIRGEN_CLI_PATH compile definition.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/edgelist.h"

namespace fairgen {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class CliFlagsTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    SyntheticGraphConfig cfg;
    cfg.num_nodes = 30;
    cfg.num_edges = 90;
    auto data = GenerateSynthetic(cfg, rng);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    edges_path_ = TempPath("edges.txt");
    ASSERT_TRUE(SaveEdgeList(data->graph, edges_path_).ok());
    out_path_ = TempPath("out.txt");
  }

  // Per-process names: ctest -j runs these tests as concurrent processes,
  // which must not share input or stderr files.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_cli_flags_" +
                       std::to_string(::getpid()) + "_" + suffix;
    paths_.push_back(path);
    return path;
  }

  // Runs the CLI with `args` appended after "generate <edges> --out=<out>";
  // returns the exit code and captures stderr into *stderr_out.
  int RunCli(const std::string& args, std::string* stderr_out) {
    std::string err_path = TempPath("stderr.txt");
    std::string command = std::string(FAIRGEN_CLI_PATH) + " generate " +
                          edges_path_ + " --out=" + out_path_ + " " + args +
                          " > /dev/null 2> " + err_path;
    int raw = std::system(command.c_str());
    if (stderr_out != nullptr) *stderr_out = ReadFileOrDie(err_path);
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::string edges_path_;
  std::string out_path_;
  std::vector<std::string> paths_;
};

// There is no HTTP endpoint (snapshot.json in the telemetry run dir is the
// live view), so a script that still passes --telemetry-port must fail
// loudly rather than run without it.
TEST_F(CliFlagsTest, TelemetryPortIsAnUnknownFlag) {
  std::string err;
  EXPECT_EQ(RunCli("--telemetry-port=9464", &err), 2);
  EXPECT_NE(err.find("unknown flag"), std::string::npos) << err;
}

// A probe's only record is its journal event, which persists only in a
// telemetry run dir, so probing without one is a flag error, not a run
// whose probes vanish.
TEST_F(CliFlagsTest, ProbeEveryRequiresTelemetryDir) {
  std::string err;
  EXPECT_EQ(RunCli("--model=fairgen --probe-every=1", &err), 2);
  EXPECT_NE(err.find("--probe-every requires --telemetry-dir"),
            std::string::npos)
      << err;
}

TEST_F(CliFlagsTest, TrailingJunkIsAFlagError) {
  std::string err;
  EXPECT_EQ(RunCli("--walks=12x", &err), 2);
  EXPECT_NE(err.find("bad --walks"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, NegativeValueForUnsignedFlagIsAFlagError) {
  // The old strtoul path wrapped -3 to 4294967293 and trained with it.
  std::string err;
  EXPECT_EQ(RunCli("--cycles=-3", &err), 2);
  EXPECT_NE(err.find("negative"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, OverflowIsAFlagError) {
  std::string err;
  EXPECT_EQ(RunCli("--walks=99999999999999999999999", &err), 2);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // A value that parses but exceeds the flag's width is equally an error.
  EXPECT_EQ(RunCli("--cycles=4294967296", &err), 2);
  EXPECT_NE(err.find("bad --cycles"), std::string::npos) << err;
}

// The CLI's own numeric flags; the run flags it shares with the benches
// are covered in run_front_end_test.cc.
TEST_F(CliFlagsTest, EveryNumericFlagRejectsGarbage) {
  const char* flags[] = {"--walks", "--cycles", "--epochs"};
  for (const char* flag : flags) {
    std::string err;
    EXPECT_EQ(RunCli(std::string(flag) + "=abc", &err), 2) << flag;
    EXPECT_NE(err.find("bad " + std::string(flag)), std::string::npos)
        << flag << ": " << err;
  }
}

TEST_F(CliFlagsTest, EmptyNumericFlagValueIsAFlagError) {
  std::string err;
  EXPECT_EQ(RunCli("--walks=", &err), 2);
  EXPECT_NE(err.find("bad --walks"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, MalformedLabelNodeIdFailsWithLineNumber) {
  // The old parser read "abc" as node 0 and silently overwrote node 0's
  // label; now the exact file:line is reported and the run fails.
  std::string labels_path = TempPath("labels.txt");
  {
    std::ofstream out(labels_path);
    out << "0 1\n" << "abc 0\n";
  }
  std::string err;
  EXPECT_NE(RunCli("--labels=" + labels_path + " --cycles=1 --epochs=1",
                   &err),
            0);
  EXPECT_NE(err.find(labels_path + ":2"), std::string::npos) << err;
  EXPECT_NE(err.find("'abc'"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, LabelAboveInt32MaxFails) {
  // 3000000000 fits in the old int64 parse and passed the `label < 0`
  // check, then truncated negative in the int32_t cast.
  std::string labels_path = TempPath("labels_big.txt");
  {
    std::ofstream out(labels_path);
    out << "0 3000000000\n";
  }
  std::string err;
  EXPECT_NE(RunCli("--labels=" + labels_path + " --cycles=1 --epochs=1",
                   &err),
            0);
  EXPECT_NE(err.find(labels_path + ":1"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, LabelNodeIdOutOfRangeFails) {
  std::string labels_path = TempPath("labels_oob.txt");
  {
    std::ofstream out(labels_path);
    out << "99999 1\n";
  }
  std::string err;
  EXPECT_NE(RunCli("--labels=" + labels_path + " --cycles=1 --epochs=1",
                   &err),
            0);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, MalformedNodeSetFailsWithLineNumber) {
  std::string prot_path = TempPath("protected.txt");
  {
    std::ofstream out(prot_path);
    out << "1\n" << "# comment lines are fine\n" << "2junk\n";
  }
  std::string err;
  EXPECT_NE(RunCli("--protected=" + prot_path + " --cycles=1 --epochs=1",
                   &err),
            0);
  EXPECT_NE(err.find(prot_path + ":3"), std::string::npos) << err;
}

TEST_F(CliFlagsTest, WellFormedInputsStillRun) {
  std::string labels_path = TempPath("labels_ok.txt");
  {
    std::ofstream out(labels_path);
    out << "# node label\n" << "0 1\n" << "1 0\n" << "2 1\n";
  }
  std::string err;
  EXPECT_EQ(RunCli("--labels=" + labels_path +
                       " --cycles=1 --epochs=1 --walks=20 --threads=2",
                   &err),
            0)
      << err;
}

}  // namespace
}  // namespace fairgen
