// Sanity checks on the *committed* BENCH_pipeline.json baseline, parsed
// directly with the repo's JSON reader (FAIRGEN_BENCH_BASELINE_PATH is
// injected by tests/CMakeLists.txt). A baseline whose IQR exceeds its
// median was recorded from an unstable run — its --compare verdicts are
// noise — so re-record it (bench_pipeline --out=BENCH_pipeline.json)
// instead of loosening these bounds.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace fairgen::bench {
namespace {

json::Value LoadBaselineOrDie() {
  std::ifstream in(FAIRGEN_BENCH_BASELINE_PATH);
  EXPECT_TRUE(in.is_open()) << "cannot open " << FAIRGEN_BENCH_BASELINE_PATH;
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = json::Parse(buf.str());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.MoveValueUnsafe();
}

TEST(BenchBaselineSanityTest, SchemaVersionIsCurrent) {
  json::Value doc = LoadBaselineOrDie();
  EXPECT_EQ(doc.GetDouble("schema_version"), 2.0)
      << "committed baseline lags the harness schema; re-record it";
  EXPECT_GT(doc.GetDouble("peak_rss_bytes", 0.0), 0.0);
}

TEST(BenchBaselineSanityTest, EveryScenarioIqrWithinMedian) {
  json::Value doc = LoadBaselineOrDie();
  const json::Value* scenarios = doc.Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  ASSERT_FALSE(scenarios->AsArray().empty());
  for (const json::Value& s : scenarios->AsArray()) {
    const std::string name = s.GetString("scenario", "?");
    const double median = s.GetDouble("median_ms", -1.0);
    const double iqr = s.GetDouble("iqr_ms", -1.0);
    ASSERT_GT(median, 0.0) << name;
    ASSERT_GE(iqr, 0.0) << name;
    EXPECT_LE(iqr, median)
        << name << ": recorded IQR exceeds the median — the baseline was "
        << "captured from an unstable run and must be re-recorded";
  }
}

TEST(BenchBaselineSanityTest, MicroSubstrateScenariosAreTracked) {
  json::Value doc = LoadBaselineOrDie();
  const json::Value* scenarios = doc.Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  bool has_matmul = false, has_alias = false;
  for (const json::Value& s : scenarios->AsArray()) {
    const std::string name = s.GetString("scenario", "");
    has_matmul |= name == "micro_substrates_matmul";
    has_alias |= name == "micro_substrates_alias";
  }
  EXPECT_TRUE(has_matmul);
  EXPECT_TRUE(has_alias);
}

}  // namespace
}  // namespace fairgen::bench
