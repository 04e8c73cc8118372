// Strict parsing of the bench-only flags (bench/bench_util.cc
// ParseOptions), driven through a real bench binary: a malformed --scale
// must be an exit-2 error, never a prefix read ("--scale=0.1x" as 0.1),
// and an unknown flag is an error too. The run flags the benches share
// with the CLI are covered in tests/integration/run_front_end_test.cc.
//
// The binary path is injected by tests/CMakeLists.txt as the
// FAIRGEN_BENCH_BINARY_PATH compile definition.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace fairgen::bench {
namespace {

// std::system returns a wait status; the bench's exit code lives in
// WEXITSTATUS. A bad flag exits before any dataset is built, so nothing
// is written to the working directory. With `stderr_out`, the bench's
// stderr is captured into it, through a file named by pid: ctest runs
// each test in its own process, and two of them must not share it.
int RunBench(const std::string& flags, std::string* stderr_out = nullptr) {
  const std::string err_path = testing::TempDir() + "/bench_flags_stderr_" +
                               std::to_string(::getpid()) + ".txt";
  const std::string command =
      std::string(FAIRGEN_BENCH_BINARY_PATH) + " " + flags +
      " > /dev/null 2> " + (stderr_out != nullptr ? err_path : "/dev/null");
  const int status = std::system(command.c_str());
  if (stderr_out != nullptr) {
    std::ifstream in(err_path);
    std::ostringstream text;
    text << in.rdbuf();
    *stderr_out = text.str();
    std::remove(err_path.c_str());
  }
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(BenchFlagsTest, WellFormedFlagsRun) {
  EXPECT_EQ(RunBench("--scale=0.01 --seed=7 --threads=1 --datasets=ACM"), 0);
}

// There is no HTTP endpoint, so a script that still passes --telemetry-port
// must fail loudly rather than run without it.
TEST(BenchFlagsTest, TelemetryPortIsAnUnknownFlag) {
  std::string err;
  EXPECT_EQ(RunBench("--telemetry-port=9464", &err), 2);
  EXPECT_NE(err.find("unknown flag"), std::string::npos) << err;
}

// As on the CLI: probe records live only in a telemetry run dir.
TEST(BenchFlagsTest, ProbeEveryRequiresTelemetryDir) {
  std::string err;
  EXPECT_EQ(RunBench("--probe-every=1", &err), 2);
  EXPECT_NE(err.find("--probe-every requires --telemetry-dir"),
            std::string::npos)
      << err;
}

TEST(BenchFlagsTest, ScaleMustBeAFiniteNumberInUnitInterval) {
  EXPECT_EQ(RunBench("--scale=nan"), 2);
  EXPECT_EQ(RunBench("--scale=inf"), 2);
  EXPECT_EQ(RunBench("--scale=0.1x"), 2);
  EXPECT_EQ(RunBench("--scale="), 2);
  EXPECT_EQ(RunBench("--scale=0"), 2);
  EXPECT_EQ(RunBench("--scale=2"), 2);
}

}  // namespace
}  // namespace fairgen::bench
