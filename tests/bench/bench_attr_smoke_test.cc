// Regression-attribution smoke: runs the real bench_pipeline binary on a
// tiny scenario with --compare + --attr-out (and the sampling profiler
// on), then asserts the attribution JSON parses and carries the
// documented schema — the machine-readable half of "the exit code names
// code locations, not just scenario names".
//
// The binary path is injected by tests/CMakeLists.txt as the
// FAIRGEN_BENCH_PIPELINE_PATH compile definition. Registered under the
// `bench-attr-smoke` ctest label.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace fairgen::bench {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int RunCommand(const std::string& command) {
  int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class BenchAttrSmokeTest : public testing::Test {
 protected:
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_bench_attr_" + suffix;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(BenchAttrSmokeTest, AttrOutEmitsSchemaCompleteAttributionJson) {
  // Record a baseline, then self-compare with --attr-out and the
  // profiler sampling. Self-comparison keeps the run fast and makes no
  // assumption about which rows regress — the schema must hold either
  // way (status is "ok" or "REGRESSED" per row, "new" never appears in a
  // self-compare). Scenarios take tens of microseconds here, so medians
  // over five repetitions keep one repetition stalled by a parallel test
  // from tripping the gate.
  std::string base_cmd = std::string(FAIRGEN_BENCH_PIPELINE_PATH) +
                         " --scale=0.01 --repetitions=5 --warmup=0"
                         " --seed=7 --scenarios=walk_sampling,assembly ";
  std::string baseline = TempPath("baseline.json");
  ASSERT_EQ(RunCommand(base_cmd + "--out=" + baseline +
                       " > /dev/null 2>&1"),
            0);

  std::string attr = TempPath("attr.json");
  std::string out = TempPath("candidate.json");
  ASSERT_EQ(RunCommand(base_cmd + "--out=" + out + " --compare=" + baseline +
                       " --attr-out=" + attr +
                       " --regress-threshold=100.0 --profile-hz=997"
                       " > /dev/null 2>&1"),
            0);

  auto doc = json::Parse(ReadFileOrDie(attr));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetDouble("schema_version", 0), 1.0);
  ASSERT_NE(doc->Find("profiled"), nullptr);
  ASSERT_NE(doc->Find("prof_samples"), nullptr);
  EXPECT_GE(doc->GetDouble("prof_samples", -1), 0.0);

  const json::Value* scenarios = doc->Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  ASSERT_EQ(scenarios->AsArray().size(), 2u);
  for (const json::Value& s : scenarios->AsArray()) {
    EXPECT_FALSE(s.GetString("scenario", "").empty());
    EXPECT_GE(s.GetDouble("current_ms", -1), 0.0);
    ASSERT_NE(s.Find("baseline_ms"), nullptr);
    ASSERT_NE(s.Find("delta_pct"), nullptr);
    const std::string status = s.GetString("status", "");
    EXPECT_TRUE(status == "ok" || status == "REGRESSED") << status;
    EXPECT_GE(s.GetDouble("samples", -1), 0.0);
    const json::Value* symbols = s.Find("top_symbols");
    ASSERT_NE(symbols, nullptr);
    ASSERT_TRUE(symbols->is_array());
    for (const json::Value& sym : symbols->AsArray()) {
      EXPECT_FALSE(sym.GetString("symbol", "").empty());
      EXPECT_GT(sym.GetDouble("samples", 0), 0.0);
      ASSERT_NE(sym.Find("pct"), nullptr);
    }
    const json::Value* spans = s.Find("top_spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->is_array());
    for (const json::Value& span : spans->AsArray()) {
      EXPECT_FALSE(span.GetString("name", "").empty());
      EXPECT_GT(span.GetDouble("wall_ns", 0), 0.0);
      EXPECT_GT(span.GetDouble("count", 0), 0.0);
    }
  }
}

TEST_F(BenchAttrSmokeTest, AttrOutWithoutCompareIsAnError) {
  EXPECT_EQ(RunCommand(std::string(FAIRGEN_BENCH_PIPELINE_PATH) +
                       " --attr-out=" + TempPath("orphan.json") +
                       " > /dev/null 2>&1"),
            2);
}

}  // namespace
}  // namespace fairgen::bench
