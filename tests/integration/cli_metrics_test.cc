// Golden-schema regression test for the metrics registry export, the
// `metrics` object of `<run>/snapshot.json` under `--telemetry-dir`: runs
// the real CLI binary on a small seeded demo (edges + few-shot labels +
// protected set) and validates that object against the checked-in key
// schema in tests/golden/metrics_schema.txt. A missing key
// means an instrumentation point was renamed or dropped — a breaking
// change for telemetry consumers that must be made deliberately (update
// the schema file in the same commit).
//
// The CLI and schema paths are injected by tests/CMakeLists.txt as the
// FAIRGEN_CLI_PATH / FAIRGEN_METRICS_SCHEMA_PATH compile definitions.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/strings.h"
#include "common/telemetry.h"
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

class CliMetricsTest : public testing::Test {
 protected:
  // Pid-unique and cleared first, so a run dir an earlier process with
  // the same pid left behind is never mistaken for this run's.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_cli_metrics_" +
                       std::to_string(::getpid()) + "_" + suffix;
    std::filesystem::remove_all(path);
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::filesystem::remove_all(p);
  }

  // The `metrics` object of the one run's snapshot.json under
  // `telemetry_dir`, or null (with a test failure) when it is missing.
  std::optional<json::Value> SnapshotMetrics(const std::string& telemetry_dir) {
    std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
    EXPECT_EQ(runs.size(), 1u) << telemetry_dir;
    if (runs.size() != 1) return std::nullopt;
    auto snapshot = json::ParseFile(runs[0] + "/snapshot.json");
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    if (!snapshot.ok()) return std::nullopt;
    const json::Value* metrics = snapshot->Find("metrics");
    EXPECT_NE(metrics, nullptr);
    if (metrics == nullptr || !metrics->is_object()) return std::nullopt;
    return *metrics;
  }

  std::vector<std::string> paths_;
};

TEST_F(CliMetricsTest, GenerateEmitsEverySchemaKey) {
  // Seeded demo inputs: a small planted-partition graph with labels and a
  // protected group, written the way a user would invoke the CLI.
  Rng rng(19);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_edges = 280;
  cfg.num_classes = 2;
  cfg.protected_size = 12;
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  std::string edges_path = TempPath("edges.txt");
  ASSERT_TRUE(SaveEdgeList(data->graph, edges_path).ok());

  std::string labels_path = TempPath("labels.txt");
  {
    std::ofstream out(labels_path);
    std::vector<int32_t> few_shot = FewShotLabels(*data, 5, rng);
    for (NodeId v = 0; v < data->graph.num_nodes(); ++v) {
      if (few_shot[v] != kUnlabeled) out << v << ' ' << few_shot[v] << '\n';
    }
  }
  std::string protected_path = TempPath("protected.txt");
  {
    std::ofstream out(protected_path);
    for (NodeId v : data->protected_set) out << v << '\n';
  }

  std::string out_path = TempPath("generated.txt");
  std::string telemetry_dir = TempPath("runs");
  std::string trace_path = TempPath("trace.json");

  std::string command = std::string(FAIRGEN_CLI_PATH) + " generate " +
                        edges_path + " --model=fairgen --labels=" +
                        labels_path + " --protected=" + protected_path +
                        " --out=" + out_path + " --seed=7 --walks=60" +
                        " --cycles=2 --epochs=1 --telemetry-dir=" +
                        telemetry_dir + " --trace-out=" + trace_path +
                        " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "CLI failed: " << command;

  // The run must produce a real graph, the snapshot, and the trace.
  auto generated = LoadEdgeList(out_path);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_GT(generated->num_edges(), 0u);

  std::optional<json::Value> metrics = SnapshotMetrics(telemetry_dir);
  ASSERT_TRUE(metrics.has_value());

  // Every key in the golden schema must name a metric in one of the
  // registry's four sections.
  std::string schema = ReadFileOrDie(FAIRGEN_METRICS_SCHEMA_PATH);
  size_t keys_checked = 0;
  for (const std::string& raw_line : StrSplit(schema, '\n')) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    bool found = false;
    for (const char* section : {"counters", "gauges", "histograms", "series"}) {
      const json::Value* metrics_in = metrics->Find(section);
      found = found || (metrics_in != nullptr &&
                        metrics_in->Find(line) != nullptr);
    }
    EXPECT_TRUE(found) << "snapshot metrics are missing schema key " << line;
    ++keys_checked;
  }
  EXPECT_GE(keys_checked, 15u) << "schema file looks truncated";

  // Acceptance spot-checks: the training curves carry actual points (a
  // key with an empty series would pass the presence check above).
  const json::Value* series = metrics->Find("series");
  ASSERT_NE(series, nullptr);
  for (const char* curve : {"trainer.nll", "trainer.self_paced_lambda",
                            "trainer.parity_regularizer"}) {
    const json::Value* points = series->Find(curve);
    ASSERT_NE(points, nullptr) << curve;
    ASSERT_TRUE(points->is_array()) << curve;
    EXPECT_FALSE(points->AsArray().empty()) << curve << " series is empty";
  }

  // --trace-out enables span collection; the run must record spans.
  std::string trace = ReadFileOrDie(trace_path);
  EXPECT_NE(trace.find("\"trainer.fit\""), std::string::npos);
  EXPECT_NE(trace.find("\"trainer.generate\""), std::string::npos);
}

TEST_F(CliMetricsTest, StatsCommandWritesMetricsToo) {
  Rng rng(23);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_edges = 160;
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());
  std::string edges_path = TempPath("stats_edges.txt");
  ASSERT_TRUE(SaveEdgeList(data->graph, edges_path).ok());
  std::string telemetry_dir = TempPath("stats_runs");

  std::string command = std::string(FAIRGEN_CLI_PATH) + " stats " +
                        edges_path + " --telemetry-dir=" + telemetry_dir +
                        " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  // stats runs the MMD-free metric path; the registry export must still
  // be well-formed and carry the four sections.
  std::optional<json::Value> metrics = SnapshotMetrics(telemetry_dir);
  ASSERT_TRUE(metrics.has_value());
  for (const char* section : {"counters", "gauges", "histograms", "series"}) {
    const json::Value* metrics_in = metrics->Find(section);
    ASSERT_NE(metrics_in, nullptr) << section;
    EXPECT_TRUE(metrics_in->is_object()) << section;
  }
}

}  // namespace
}  // namespace fairgen
