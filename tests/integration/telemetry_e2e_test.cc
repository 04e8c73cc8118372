// End-to-end telemetry pipeline test: drives the real `fairgen` CLI with
// `--telemetry-dir` and `--trace-out`, then validates the run directory it
// leaves behind with the real `validate_telemetry` binary against the
// checked-in golden schemas (and the trace against the Chrome-trace
// fragments), renders it with the real `fairgen_report` binary, and
// finally kills a child CLI mid-run with SIGTERM to prove the crash-flush
// path leaves a finalized manifest and a usable snapshot on disk.
//
// Binary and schema paths are injected by tests/CMakeLists.txt as compile
// definitions (FAIRGEN_CLI_PATH, FAIRGEN_REPORT_PATH,
// FAIRGEN_VALIDATE_PATH, FAIRGEN_*_SCHEMA_PATH).

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "graph/edgelist.h"
#include "testing/cli_child.h"

namespace fairgen {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

class TelemetryE2eTest : public testing::Test {
 protected:
  // Clears whatever an earlier process with the same pid left at the
  // path, so a stale run directory is never mistaken for this run's.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_tele_e2e_" +
                       std::to_string(::getpid()) + "_" + suffix;
    std::filesystem::remove_all(path);
    return path;
  }

  // Writes the seeded demo inputs (edges, few-shot labels, protected set)
  // the CLI runs on.
  void WriteInputs(const std::string& edges, const std::string& labels,
                   const std::string& protected_path, uint32_t nodes,
                   uint32_t edges_count) {
    Rng rng(19);
    SyntheticGraphConfig cfg;
    cfg.num_nodes = nodes;
    cfg.num_edges = edges_count;
    cfg.num_classes = 2;
    cfg.protected_size = nodes / 5;
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

  int RunValidator(const std::string& kind, const std::string& file,
                   const std::string& schema) {
    std::string command = std::string(FAIRGEN_VALIDATE_PATH) +
                          " --kind=" + kind + " --file=" + file +
                          " --schema=" + schema + " > /dev/null 2>&1";
    int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }
};

TEST_F(TelemetryE2eTest, CliRunYieldsSchemaValidArtifactsAndReport) {
  std::string edges = TempPath("edges.txt");
  std::string labels = TempPath("labels.txt");
  std::string protected_path = TempPath("protected.txt");
  WriteInputs(edges, labels, protected_path, 60, 280);
  std::string out_path = TempPath("generated.txt");
  std::string telemetry_dir = TempPath("runs");
  // No special suffix: --trace-out writes Chrome trace-event JSON to any
  // path.
  std::string trace_path = TempPath("t.json");

  std::string command = std::string(FAIRGEN_CLI_PATH) + " generate " +
                        edges + " --model=fairgen --labels=" + labels +
                        " --protected=" + protected_path + " --out=" +
                        out_path + " --seed=7 --walks=60 --cycles=2" +
                        " --epochs=1 --trace-out=" + trace_path +
                        " --telemetry-dir=" + telemetry_dir +
                        " --telemetry-interval-ms=25 --profile-hz=997" +
                        " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
  ASSERT_EQ(runs.size(), 1u);
  const std::string& run = runs[0];

  // The run dir holds one home per signal: the manifest, the snapshot,
  // the event journal and the profile, and no second registry export.
  for (const auto& entry : std::filesystem::directory_iterator(run)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "run.json" || name == "snapshot.json" ||
                name == "events.jsonl" || name == "profile.folded" ||
                name == "profile_top.json")
        << "unexpected run-dir file " << name;
  }

  // Every artifact validates against its golden schema...
  EXPECT_EQ(RunValidator("manifest", run + "/run.json",
                         FAIRGEN_MANIFEST_SCHEMA_PATH),
            0);
  EXPECT_EQ(RunValidator("snapshot", run + "/snapshot.json",
                         FAIRGEN_SNAPSHOT_SCHEMA_PATH),
            0);
  // The profiled run leaves a structurally valid collapsed-stack profile
  // in the run dir (training burns seconds of CPU at 997 Hz, so samples
  // are guaranteed).
  EXPECT_EQ(RunValidator("folded", run + "/profile.folded",
                         FAIRGEN_FOLDED_SCHEMA_PATH),
            0);

  // ...and the validator actually discriminates: a JSON document missing
  // the required keys must fail with exit 1 (not a usage error).
  std::string bogus = TempPath("bogus.json");
  {
    std::ofstream out(bogus);
    out << "{\"schema_version\": 1}\n";
  }
  EXPECT_EQ(RunValidator("manifest", bogus, FAIRGEN_MANIFEST_SCHEMA_PATH),
            1);

  // The trace parses, carries the fit as a complete event, and holds
  // every golden Chrome-trace fragment.
  const std::string trace = ReadFileOrDie(trace_path);
  auto trace_doc = json::Parse(trace);
  ASSERT_TRUE(trace_doc.ok()) << trace_doc.status().ToString();
  const json::Value* trace_events = trace_doc->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  bool saw_fit = false;
  for (const json::Value& event : trace_events->AsArray()) {
    saw_fit = saw_fit || (event.GetString("ph") == "X" &&
                          event.GetString("name") == "trainer.fit");
  }
  EXPECT_TRUE(saw_fit) << "no trainer.fit complete event in " << trace_path;
  const std::string fragments =
      ReadFileOrDie(FAIRGEN_CHROME_TRACE_SCHEMA_PATH);
  for (const std::string& raw_line : StrSplit(fragments, '\n')) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(trace.find(line), std::string::npos)
        << "trace is missing golden fragment: " << line;
  }

  // The finished manifest records a clean exit.
  auto manifest = json::ParseFile(run + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 0.0);

  // fairgen_report renders the run dir into self-contained HTML.
  std::string report = TempPath("report.html");
  std::string report_command = std::string(FAIRGEN_REPORT_PATH) + " " +
                               telemetry_dir + " --out=" + report +
                               " --title=e2e > /dev/null 2>&1";
  ASSERT_EQ(std::system(report_command.c_str()), 0);
  std::string html = ReadFileOrDie(report);
  for (const char* id :
       {"id=\"runs\"", "id=\"curves\"", "id=\"stages\"", "id=\"memory\"",
        "id=\"profile\"", "id=\"compare\""}) {
    EXPECT_NE(html.find(id), std::string::npos) << "missing section " << id;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos)
      << "no charts in the report";
  EXPECT_NE(html.find("trainer.nll"), std::string::npos);
  // Self-contained: no scripts, no external fetches.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

// A probed, watched run: each probe and stage reading is recorded once,
// as a journal event with its fields, and not again in the snapshot's
// registry export; and fairgen_report draws R with R+ and the stage
// memory from those events.
TEST_F(TelemetryE2eTest, ProbedRunReportsFairnessFromJournal) {
  std::string edges = TempPath("probe_edges.txt");
  std::string labels = TempPath("probe_labels.txt");
  std::string protected_path = TempPath("probe_protected.txt");
  WriteInputs(edges, labels, protected_path, 60, 280);
  std::string telemetry_dir = TempPath("probe_runs");
  std::string command = std::string(FAIRGEN_CLI_PATH) + " generate " +
                        edges + " --model=fairgen --labels=" + labels +
                        " --protected=" + protected_path + " --out=" +
                        TempPath("probe_generated.txt") +
                        " --seed=7 --walks=60 --cycles=2 --epochs=1" +
                        " --watchdog --probe-every=1 --telemetry-dir=" +
                        telemetry_dir + " --telemetry-interval-ms=25" +
                        " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
  ASSERT_EQ(runs.size(), 1u);
  const std::string& run = runs[0];

  EXPECT_EQ(RunValidator("snapshot", run + "/snapshot.json",
                         FAIRGEN_SNAPSHOT_SCHEMA_PATH),
            0);
  const std::string snapshot = ReadFileOrDie(run + "/snapshot.json");
  EXPECT_EQ(snapshot.find("\"probe."), std::string::npos);
  EXPECT_EQ(snapshot.find("\"mem."), std::string::npos);

  auto journal = events::ReadJournalFile(run + "/events.jsonl");
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->malformed_lines.empty());
  std::vector<double> probe_epochs;
  std::vector<std::string> stages;
  for (const events::Event& event : journal->events) {
    if (event.type == events::Type::kProbe) {
      probe_epochs.push_back(event.epoch);
      for (const char* field :
           {"overall_nll", "protected_nll", "disparity_gap",
            "discrepancy_mean", "protected_discrepancy_mean"}) {
        EXPECT_NE(event.Field(field), nullptr) << field;
      }
    } else if (event.type == events::Type::kStage) {
      stages.push_back(event.name);
      ASSERT_NE(event.Field("rss_bytes"), nullptr) << event.name;
      EXPECT_GT(*event.Field("rss_bytes"), 0.0);
      EXPECT_NE(event.Field("nn_bytes_live"), nullptr) << event.name;
    }
  }
  EXPECT_EQ(probe_epochs, (std::vector<double>{0, 1}));
  EXPECT_EQ(stages, (std::vector<std::string>{"load", "fit", "generate",
                                              "exit"}));

  std::string report = TempPath("probe_report.html");
  std::string report_command = std::string(FAIRGEN_REPORT_PATH) + " " +
                               telemetry_dir + " --out=" + report +
                               " > /dev/null 2>&1";
  ASSERT_EQ(std::system(report_command.c_str()), 0);
  const std::string html = ReadFileOrDie(report);
  EXPECT_NE(html.find("probe generation discrepancy per cycle (R solid, "
                      "protected-group R+ dashed)"),
            std::string::npos);
  EXPECT_NE(html.find(" R+</text>"), std::string::npos);
  EXPECT_NE(html.find("stroke-dasharray"), std::string::npos);
  EXPECT_NE(html.find("MiB at each stage event"), std::string::npos);
  EXPECT_NE(html.find("walk-NLL disparity gap"), std::string::npos);
  EXPECT_EQ(html.find("events recorded"), std::string::npos)
      << "a journal chart had no data";
}

// A child CLI killed mid-run must leave a crash record: the signal-flush
// path finalizes run.json with exit status 128+SIGTERM and the periodic
// publisher guarantees a snapshot.json is already on disk.
TEST_F(TelemetryE2eTest, SigtermMidRunLeavesFinalizedCrashRecord) {
  std::string edges = TempPath("crash_edges.txt");
  std::string labels = TempPath("crash_labels.txt");
  std::string protected_path = TempPath("crash_protected.txt");
  // Large enough budgets that training far outlives the kill delay below.
  WriteInputs(edges, labels, protected_path, 200, 1200);
  std::string telemetry_dir = TempPath("crash_runs");

  std::vector<std::string> args = {
      std::string(FAIRGEN_CLI_PATH),
      "generate",
      edges,
      "--model=fairgen",
      "--labels=" + labels,
      "--protected=" + protected_path,
      "--out=" + TempPath("crash_generated.txt"),
      "--seed=7",
      "--walks=4000",
      "--cycles=6",
      "--epochs=2",
      "--telemetry-dir=" + telemetry_dir,
      "--telemetry-interval-ms=20",
  };

  const std::string child_stderr = TempPath("crash_stderr.txt");
  const pid_t pid = SpawnCliChild(args, child_stderr);
  ASSERT_GE(pid, 0);

  // Wait for the publisher to come up (run dir + first snapshot), then a
  // little longer so the kill lands mid-training.
  std::string run_dir;
  for (int i = 0; i < 400 && run_dir.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
    if (!runs.empty() && FileExists(runs[0] + "/snapshot.json")) {
      run_dir = runs[0];
    }
  }
  ASSERT_FALSE(run_dir.empty()) << "child never started publishing";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  EXPECT_EQ(SanitizerReports(child_stderr), "");

  // The crash record must exist regardless of how the race resolved.
  EXPECT_TRUE(FileExists(run_dir + "/run.json"));
  EXPECT_TRUE(FileExists(run_dir + "/snapshot.json"));

  if (WIFSIGNALED(wait_status)) {
    // The flush handler re-raises with the default disposition, so the
    // wait status still reports death-by-SIGTERM...
    EXPECT_EQ(WTERMSIG(wait_status), SIGTERM);
    // ...and the manifest records the conventional 128+15.
    auto manifest = json::ParseFile(run_dir + "/run.json");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_TRUE(manifest->Find("finalized")->AsBool());
    EXPECT_EQ(manifest->GetDouble("exit_status", -1), 128.0 + SIGTERM);
    // The flushed snapshot parses — the atomic rename never leaves a
    // torn file even when the process dies immediately after.
    EXPECT_TRUE(json::ParseFile(run_dir + "/snapshot.json").ok());
  } else {
    // On a machine fast enough to finish before the kill the run ends
    // normally; the record is then a clean exit. Tolerated (the unit
    // tests cover CrashFlush semantics deterministically).
    EXPECT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  }
}

}  // namespace
}  // namespace fairgen
