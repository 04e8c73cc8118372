// End-to-end fault-injection test of the run-health watchdog: drives the
// real `fairgen` CLI with `--watchdog` and injected faults, then checks
// the whole observability chain — the structured event journal on disk
// (via the real `validate_telemetry` binary and the golden events
// schema), which is the alerts' only record, the emergency checkpoint
// written on a fatal rule, and the `fairgen_doctor` triage verdicts
// (healthy / degraded / failed) and fairness trend (R and R+ from the
// journaled probes). The observation-only contract
// is pinned too: watchdog + fairness probes must leave the generated
// graph bit-identical to an uninstrumented run, at 1, 2, and 4 threads.
//
// Binary and schema paths are injected by tests/CMakeLists.txt as
// compile definitions (FAIRGEN_CLI_PATH, FAIRGEN_DOCTOR_PATH,
// FAIRGEN_VALIDATE_PATH, FAIRGEN_EVENTS_SCHEMA_PATH).

#include <signal.h>
#include <sys/stat.h>
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
#include "data/synthetic.h"
#include "graph/edgelist.h"
#include "testing/cli_child.h"

namespace fairgen {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// All alert records in an events.jsonl, as (name, severity) pairs.
std::vector<std::pair<std::string, std::string>> AlertRecords(
    const std::string& events_path) {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream in(events_path);
  std::string line;
  while (std::getline(in, line)) {
    auto doc = json::Parse(line);
    if (!doc.ok() || doc->GetString("type") != "alert") continue;
    out.emplace_back(doc->GetString("name"), doc->GetString("severity"));
  }
  return out;
}

class WatchdogE2eTest : public testing::Test {
 protected:
  // Clears whatever an earlier process with the same pid left at the
  // path, so a stale run or checkpoint directory is never mistaken for
  // this run's.
  std::string TempPath(const std::string& suffix) {
    std::string path = testing::TempDir() + "/fairgen_wd_e2e_" +
                       std::to_string(::getpid()) + "_" + suffix;
    std::filesystem::remove_all(path);
    return path;
  }

  // Seeded demo inputs (edges, few-shot labels, protected set).
  void WriteInputs(const std::string& edges, const std::string& labels,
                   const std::string& protected_path, uint32_t nodes,
                   uint32_t edge_count) {
    Rng rng(19);
    SyntheticGraphConfig cfg;
    cfg.num_nodes = nodes;
    cfg.num_edges = edge_count;
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

  // Runs the CLI to completion through the shell (so an env prefix
  // works); returns the exit status, or -1 on death by signal.
  int RunCli(const std::string& env_prefix, const std::string& args) {
    std::string command = env_prefix + std::string(FAIRGEN_CLI_PATH) + " " +
                          args + " > /dev/null 2>&1";
    int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  // fairgen_doctor's exit code for a run dir: 0 healthy, 1 degraded,
  // 2 failed. Captures --json output into `json_out` when non-null.
  int RunDoctor(const std::string& run_dir, std::string* json_out) {
    std::string json_path = TempPath("doctor.json");
    std::string command = std::string(FAIRGEN_DOCTOR_PATH) + " " + run_dir;
    if (json_out != nullptr) {
      command += " --json > " + json_path + " 2>/dev/null";
    } else {
      command += " > /dev/null 2>&1";
    }
    int rc = std::system(command.c_str());
    if (json_out != nullptr) *json_out = ReadFileOrDie(json_path);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  // fairgen_doctor's text report for a run dir.
  std::string DoctorText(const std::string& run_dir) {
    std::string text_path = TempPath("doctor.txt");
    std::string command = std::string(FAIRGEN_DOCTOR_PATH) + " " + run_dir +
                          " > " + text_path + " 2>/dev/null";
    std::system(command.c_str());
    return ReadFileOrDie(text_path);
  }

  int ValidateEvents(const std::string& events_path) {
    std::string command = std::string(FAIRGEN_VALIDATE_PATH) +
                          " --kind=events --file=" + events_path +
                          " --schema=" FAIRGEN_EVENTS_SCHEMA_PATH
                          " > /dev/null 2>&1";
    int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  // Common CLI argument tail for a small training run.
  std::string BaseArgs(const std::string& edges, const std::string& labels,
                       const std::string& protected_path,
                       const std::string& out, unsigned threads) {
    return "generate " + edges + " --model=fairgen --labels=" + labels +
           " --protected=" + protected_path + " --out=" + out +
           " --seed=7 --walks=60 --cycles=3 --epochs=1 --threads=" +
           std::to_string(threads);
  }
};

// Fault A: a poisoned loss batch. The run must finish cleanly (the guard
// only records, never alters training), the journal must carry a warn
// alert for loss_non_finite, and the doctor must say "degraded" — while
// the generated graph stays
// bit-identical to an uninjected, uninstrumented run.
TEST_F(WatchdogE2eTest, NanInjectionDegradesRunButNotOutput) {
  std::string edges = TempPath("edges.txt");
  std::string labels = TempPath("labels.txt");
  std::string protected_path = TempPath("protected.txt");
  WriteInputs(edges, labels, protected_path, 60, 280);

  // Reference: no watchdog, no probes, no injection.
  std::string clean_out = TempPath("clean.txt");
  ASSERT_EQ(
      RunCli("", BaseArgs(edges, labels, protected_path, clean_out, 2)), 0);

  // Injected: NaN into the recorded loss of training cycle 1, with the
  // full observability stack on.
  std::string inj_out = TempPath("injected.txt");
  std::string telemetry_dir = TempPath("nan_runs");
  ASSERT_EQ(RunCli("FAIRGEN_INJECT_NAN_LOSS=1 ",
                   BaseArgs(edges, labels, protected_path, inj_out, 2) +
                       " --watchdog --probe-every=1 --telemetry-dir=" +
                       telemetry_dir + " --telemetry-interval-ms=25"),
            0);

  // Observation-only: the poisoned scalar feeds the journal, not the
  // gradients, so the generated graph is unchanged.
  EXPECT_EQ(ReadFileOrDie(clean_out), ReadFileOrDie(inj_out));

  std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
  ASSERT_EQ(runs.size(), 1u);
  const std::string& run = runs[0];

  // The journal validates against the golden schema and carries the
  // warn-severity loss_non_finite alert.
  ASSERT_TRUE(FileExists(run + "/events.jsonl"));
  EXPECT_EQ(ValidateEvents(run + "/events.jsonl"), 0);
  auto alerts = AlertRecords(run + "/events.jsonl");
  ASSERT_FALSE(alerts.empty());
  bool found = false;
  for (const auto& [name, severity] : alerts) {
    if (name == "loss_non_finite") {
      found = true;
      EXPECT_EQ(severity, "warn");
    }
    EXPECT_NE(severity, "fatal");
  }
  EXPECT_TRUE(found) << "no loss_non_finite alert in " << run;

  // The journal is the alert's only record: the snapshot's registry
  // export does not repeat it.
  EXPECT_EQ(ReadFileOrDie(run + "/snapshot.json").find("alerts"),
            std::string::npos);

  // Warn alerts without a fatal: the doctor calls it degraded (exit 1)
  // and names the firing rule with its epoch window.
  std::string doctor_json;
  EXPECT_EQ(RunDoctor(run, &doctor_json), 1);
  auto verdict = json::Parse(doctor_json);
  ASSERT_TRUE(verdict.ok()) << doctor_json;
  EXPECT_EQ(verdict->GetString("verdict"), "degraded");
  EXPECT_NE(doctor_json.find("loss_non_finite"), std::string::npos);
}

// Fault B: an impossible RSS budget. The fatal rule must write an
// emergency checkpoint via the SIGTERM crash path, leave a finalized
// manifest recording 128+15 plus a crash event after the fatal alert,
// and the doctor must say "failed".
TEST_F(WatchdogE2eTest, RssBreachWritesEmergencyCheckpointAndFailsRun) {
  std::string edges = TempPath("rss_edges.txt");
  std::string labels = TempPath("rss_labels.txt");
  std::string protected_path = TempPath("rss_protected.txt");
  // Big enough that training outlives several publisher ticks.
  WriteInputs(edges, labels, protected_path, 140, 700);
  std::string telemetry_dir = TempPath("rss_runs");
  std::string ckpt_dir = TempPath("rss_ckpt");

  std::vector<std::string> args = {
      std::string(FAIRGEN_CLI_PATH),
      "generate",
      edges,
      "--model=fairgen",
      "--labels=" + labels,
      "--protected=" + protected_path,
      "--out=" + TempPath("rss_generated.txt"),
      "--seed=7",
      "--walks=1500",
      "--cycles=6",
      "--epochs=2",
      "--checkpoint-dir=" + ckpt_dir,
      "--watchdog",
      "--rss-budget-mb=1",  // any real process exceeds 1 MiB
      "--telemetry-dir=" + telemetry_dir,
      "--telemetry-interval-ms=20",
  };

  const std::string child_stderr = TempPath("rss_stderr.txt");
  const pid_t pid = SpawnCliChild(args, child_stderr);
  ASSERT_GE(pid, 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  EXPECT_EQ(SanitizerReports(child_stderr), "");

  // The fatal action raises SIGTERM; the crash-flush handler re-raises
  // with the default disposition, so the child dies by the signal.
  ASSERT_TRUE(WIFSIGNALED(wait_status)) << wait_status;
  EXPECT_EQ(WTERMSIG(wait_status), SIGTERM);

  std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
  ASSERT_EQ(runs.size(), 1u);
  const std::string& run = runs[0];

  // The journal survived the crash: schema-valid, with the fatal alert
  // and a crash record carrying the conventional 128+15.
  ASSERT_TRUE(FileExists(run + "/events.jsonl"));
  EXPECT_EQ(ValidateEvents(run + "/events.jsonl"), 0);
  auto alerts = AlertRecords(run + "/events.jsonl");
  bool fatal_found = false;
  for (const auto& [name, severity] : alerts) {
    if (name == "rss_budget" && severity == "fatal") fatal_found = true;
  }
  EXPECT_TRUE(fatal_found) << "no fatal rss_budget alert in " << run;
  {
    std::ifstream in(run + "/events.jsonl");
    std::string line;
    bool crash_found = false;
    while (std::getline(in, line)) {
      auto doc = json::Parse(line);
      if (doc.ok() && doc->GetString("type") == "crash") {
        crash_found = true;
        EXPECT_EQ(doc->Find("fields")->GetDouble("exit_status", -1),
                  128.0 + SIGTERM);
      }
    }
    EXPECT_TRUE(crash_found);
  }

  // The manifest finalized with the crash status.
  auto manifest = json::ParseFile(run + "/run.json");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 128.0 + SIGTERM);

  // The emergency checkpoint is a complete, parseable FGCKPT2 container.
  std::vector<CheckpointFile> ckpts = ListCheckpoints(ckpt_dir);
  ASSERT_FALSE(ckpts.empty()) << "no emergency checkpoint in " << ckpt_dir;
  auto reader = CheckpointReader::ReadFile(ckpts.back().path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();

  // A fatal alert means the run failed outright (exit 2).
  std::string doctor_json;
  EXPECT_EQ(RunDoctor(run, &doctor_json), 2);
  auto verdict = json::Parse(doctor_json);
  ASSERT_TRUE(verdict.ok()) << doctor_json;
  EXPECT_EQ(verdict->GetString("verdict"), "failed");
  EXPECT_NE(doctor_json.find("rss_budget"), std::string::npos);
}

// The observation-only contract under concurrency: watchdog + per-cycle
// fairness probes leave the generated graph bit-identical across 1, 2,
// and 4 threads, and identical to the single-thread uninstrumented run.
TEST_F(WatchdogE2eTest, WatchdogAndProbesAreBitExactAcrossThreadCounts) {
  std::string edges = TempPath("det_edges.txt");
  std::string labels = TempPath("det_labels.txt");
  std::string protected_path = TempPath("det_protected.txt");
  WriteInputs(edges, labels, protected_path, 60, 280);

  std::string plain_out = TempPath("det_plain.txt");
  ASSERT_EQ(
      RunCli("", BaseArgs(edges, labels, protected_path, plain_out, 1)), 0);
  const std::string plain = ReadFileOrDie(plain_out);
  ASSERT_FALSE(plain.empty());

  for (unsigned threads : {1u, 2u, 4u}) {
    std::string out = TempPath("det_t" + std::to_string(threads) + ".txt");
    std::string telemetry_dir =
        TempPath("det_runs_t" + std::to_string(threads));
    ASSERT_EQ(RunCli("", BaseArgs(edges, labels, protected_path, out,
                                  threads) +
                             " --watchdog --probe-every=1 --telemetry-dir=" +
                             telemetry_dir + " --telemetry-interval-ms=25"),
              0);
    EXPECT_EQ(plain, ReadFileOrDie(out)) << "threads=" << threads;

    // Each instrumented run journaled its fairness probes.
    std::vector<std::string> runs = telemetry::RunDirs(telemetry_dir);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(ValidateEvents(runs[0] + "/events.jsonl"), 0);
    EXPECT_NE(ReadFileOrDie(runs[0] + "/events.jsonl").find("\"fairness\""),
              std::string::npos);
    // Tiny synthetic runs can legitimately trip warn rules (the fairness
    // gap of a 60-node graph is noisy), so the doctor may say healthy or
    // degraded here — but never failed: nothing fatal fired.
    for (const auto& [name, severity] : AlertRecords(runs[0] +
                                                     "/events.jsonl")) {
      EXPECT_NE(severity, "fatal") << name;
    }
    EXPECT_LE(RunDoctor(runs[0], nullptr), 1) << "run misclassified";
  }
}

// The doctor's verdict ladder, pinned on hand-authored run directories
// where every input is controlled: a finalized clean run with no alerts
// is healthy (exit 0), warn alerts degrade it (exit 1), and a fatal
// alert — or a manifest that never finalized — fails it (exit 2).
TEST_F(WatchdogE2eTest, DoctorVerdictLadderOnAuthoredRuns) {
  auto write_run = [&](const std::string& dir, const std::string& events,
                       bool finalized, int exit_status) {
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    std::ofstream manifest(dir + "/run.json");
    manifest << "{\"schema_version\": 1, \"run_id\": \"r1\", "
             << "\"exit_status\": " << exit_status << ", \"finalized\": "
             << (finalized ? "true" : "false") << "}\n";
    std::ofstream journal(dir + "/events.jsonl");
    journal << events;
  };
  const std::string base =
      "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"stage\", "
      "\"name\": \"load\", \"fields\": {}}\n"
      "{\"seq\": 2, \"unix_ms\": 2, \"type\": \"stage\", "
      "\"name\": \"fit\", \"fields\": {}}\n";
  const std::string warn_alert =
      "{\"seq\": 3, \"unix_ms\": 3, \"type\": \"alert\", "
      "\"name\": \"loss_plateau\", \"severity\": \"warn\", \"epoch\": 4, "
      "\"message\": \"m\", \"fields\": {}}\n";
  const std::string fatal_alert =
      "{\"seq\": 4, \"unix_ms\": 4, \"type\": \"alert\", "
      "\"name\": \"rss_budget\", \"severity\": \"fatal\", \"epoch\": 5, "
      "\"message\": \"m\", \"fields\": {}}\n";

  std::string healthy = TempPath("doc_healthy");
  write_run(healthy, base, true, 0);
  std::string json;
  EXPECT_EQ(RunDoctor(healthy, &json), 0);
  EXPECT_NE(json.find("\"healthy\""), std::string::npos) << json;

  std::string degraded = TempPath("doc_degraded");
  write_run(degraded, base + warn_alert, true, 0);
  EXPECT_EQ(RunDoctor(degraded, &json), 1);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos) << json;
  EXPECT_NE(json.find("loss_plateau"), std::string::npos) << json;

  std::string failed = TempPath("doc_failed");
  write_run(failed, base + warn_alert + fatal_alert, true, 143);
  EXPECT_EQ(RunDoctor(failed, &json), 2);
  EXPECT_NE(json.find("\"failed\""), std::string::npos) << json;

  // A run that never finalized its manifest is failed even with a quiet
  // journal — the process died without reaching any flush path.
  std::string torn = TempPath("doc_torn");
  write_run(torn, base, false, -1);
  EXPECT_EQ(RunDoctor(torn, &json), 2);
  EXPECT_NE(json.find("\"failed\""), std::string::npos) << json;
}

// The doctor's fairness trend, pinned on hand-authored journals: it
// reads the probes' R (`discrepancy_mean`) and R+
// (`protected_discrepancy_mean`) first -> last, in text and --json, and
// leaves R+ out when the probes do not carry it (no protected set).
TEST_F(WatchdogE2eTest, DoctorFairnessTrendShowsRPlusBesideR) {
  auto write_run = [&](const std::string& dir, const std::string& events) {
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    std::ofstream manifest(dir + "/run.json");
    manifest << "{\"schema_version\": 1, \"run_id\": \"r1\", "
             << "\"exit_status\": 0, \"finalized\": true}\n";
    std::ofstream journal(dir + "/events.jsonl");
    journal << events;
  };
  auto probe = [](int seq, int epoch, const std::string& fields) {
    return "{\"seq\": " + std::to_string(seq) + ", \"unix_ms\": 1, " +
           "\"type\": \"probe\", \"name\": \"fairness\", \"epoch\": " +
           std::to_string(epoch) + ", \"fields\": {" + fields + "}}\n";
  };

  std::string with_rplus = TempPath("doc_rplus");
  write_run(with_rplus,
            probe(1, 0,
                  "\"disparity_gap\": 0.5, \"discrepancy_mean\": 2.5, "
                  "\"protected_discrepancy_mean\": 0.75") +
                probe(2, 1,
                      "\"disparity_gap\": 0.25, \"discrepancy_mean\": 2, "
                      "\"protected_discrepancy_mean\": 0.625") +
                probe(3, 2,
                      "\"disparity_gap\": 0.125, \"discrepancy_mean\": 1.5, "
                      "\"protected_discrepancy_mean\": 0.5"));
  const std::string text = DoctorText(with_rplus);
  EXPECT_NE(text.find("fairness trend (3 probes): disparity_gap 0.5 -> 0.125, "
                      "R 2.5 -> 1.5, R+ 0.75 -> 0.5"),
            std::string::npos)
      << text;
  std::string json;
  EXPECT_EQ(RunDoctor(with_rplus, &json), 0);
  auto verdict = json::Parse(json);
  ASSERT_TRUE(verdict.ok()) << json;
  EXPECT_EQ(verdict->GetDouble("discrepancy_mean_first", -1), 2.5);
  EXPECT_EQ(verdict->GetDouble("discrepancy_mean_last", -1), 1.5);
  EXPECT_EQ(verdict->GetDouble("protected_discrepancy_mean_first", -1), 0.75);
  EXPECT_EQ(verdict->GetDouble("protected_discrepancy_mean_last", -1), 0.5);

  std::string without_rplus = TempPath("doc_no_rplus");
  write_run(without_rplus,
            probe(1, 0, "\"disparity_gap\": 0, \"discrepancy_mean\": 3") +
                probe(2, 1, "\"disparity_gap\": 0, \"discrepancy_mean\": 2"));
  EXPECT_NE(DoctorText(without_rplus).find("R 3 -> 2\n"), std::string::npos);
  EXPECT_EQ(RunDoctor(without_rplus, &json), 0);
  verdict = json::Parse(json);
  ASSERT_TRUE(verdict.ok()) << json;
  EXPECT_EQ(verdict->GetDouble("discrepancy_mean_last", -1), 2.0);
  EXPECT_EQ(verdict->Find("protected_discrepancy_mean_first"), nullptr);
}

}  // namespace
}  // namespace fairgen
