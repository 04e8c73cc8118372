// fairgen_doctor — post-hoc run-health triage.
//
// Usage:
//   fairgen_doctor <run_dir> [--json]
//
// <run_dir> is a telemetry run directory (holds run.json); a parent
// directory containing exactly one run subdirectory also works, so
// `fairgen_doctor tele/` after a single run does the right thing.
//
// The doctor replays the structured event journal (events.jsonl) and the
// run manifest into a verdict:
//
//   healthy    finalized manifest, exit status 0, no alerts
//   degraded   warn alerts fired, but the run completed successfully
//   failed     a fatal alert fired, the exit status is nonzero, or the
//              manifest was never finalized (process died without any
//              flush path running)
//
// For every firing rule it prints the alert count and the epoch window
// [first..last] (training cycles) in which the rule fired, plus the
// fairness trend across in-training probes (first -> last disparity gap
// and generation discrepancy). `--json` emits the same triage as a JSON
// object for scripting.
//
// Exit status: 0 healthy, 1 degraded, 2 failed, 3 usage or I/O errors.

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/json.h"
#include "common/strings.h"

namespace fairgen::doctor {
namespace {

struct RuleWindow {
  std::string severity;  // worst seen: "fatal" beats "warn"
  uint32_t count = 0;
  double first_epoch = -1.0;
  double last_epoch = -1.0;
  std::string last_message;
};

struct ProbePoint {
  double epoch = -1.0;
  double disparity_gap = 0.0;
  double discrepancy_mean = 0.0;
};

struct Triage {
  // Manifest.
  bool have_manifest = false;
  bool finalized = false;
  double exit_status = 0.0;
  std::string run_id;

  // Journal.
  bool have_events = false;
  size_t num_events = 0;
  size_t malformed_lines = 0;
  bool seq_monotonic = true;
  bool crash_flush = false;
  std::map<std::string, RuleWindow> rules;  // alert name -> window
  std::vector<ProbePoint> probes;
  std::vector<std::string> stages;  // stage names in journal order
};

/// `dir` itself when it holds run.json; otherwise the single run
/// subdirectory under it (error when none or several).
Result<std::string> ResolveRunDir(const std::string& dir) {
  if (PathExists(dir + "/run.json")) return dir;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot open directory: " + dir);
  }
  std::vector<std::string> runs;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (PathExists(dir + "/" + name + "/run.json")) {
      runs.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(runs.begin(), runs.end());
  if (runs.size() == 1) return runs[0];
  if (runs.empty()) {
    return Status::NotFound("no run.json under " + dir);
  }
  return Status::InvalidArgument(
      dir + " holds " + std::to_string(runs.size()) +
      " runs; pass one run directory explicitly");
}

void ReadManifest(const std::string& run_dir, Triage* triage) {
  auto doc = json::ParseFile(run_dir + "/run.json");
  if (!doc.ok() || !doc->is_object()) return;
  triage->have_manifest = true;
  triage->run_id = doc->GetString("run_id");
  triage->exit_status = doc->GetDouble("exit_status", 0.0);
  const json::Value* finalized = doc->Find("finalized");
  triage->finalized =
      finalized != nullptr && finalized->is_bool() && finalized->AsBool();
}

void ReadEvents(const std::string& run_dir, Triage* triage) {
  std::ifstream in(run_dir + "/events.jsonl");
  if (!in.is_open()) return;
  triage->have_events = true;
  std::string line;
  double last_seq = 0.0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto doc = json::Parse(line);
    if (!doc.ok() || !doc->is_object()) {
      ++triage->malformed_lines;
      continue;
    }
    ++triage->num_events;
    double seq = doc->GetDouble("seq", 0.0);
    if (seq <= last_seq) triage->seq_monotonic = false;
    last_seq = seq;
    const std::string type = doc->GetString("type");
    if (type == "crash") {
      triage->crash_flush = true;
    } else if (type == "stage") {
      triage->stages.push_back(doc->GetString("name"));
    } else if (type == "alert") {
      RuleWindow& window = triage->rules[doc->GetString("name")];
      const std::string severity = doc->GetString("severity", "warn");
      if (window.count == 0 || severity == "fatal") {
        window.severity = severity;
      }
      ++window.count;
      double epoch = doc->GetDouble("epoch", -1.0);
      if (window.count == 1) window.first_epoch = epoch;
      window.last_epoch = epoch;
      window.last_message = doc->GetString("message");
    } else if (type == "probe") {
      const json::Value* fields = doc->Find("fields");
      if (fields != nullptr && fields->is_object()) {
        ProbePoint point;
        point.epoch = doc->GetDouble("epoch", -1.0);
        point.disparity_gap = fields->GetDouble("disparity_gap", 0.0);
        point.discrepancy_mean = fields->GetDouble("discrepancy_mean", 0.0);
        triage->probes.push_back(point);
      }
    }
  }
}

/// "healthy" | "degraded" | "failed" per the contract in the header
/// comment. Journal corruption (malformed lines, seq regressions) also
/// counts as failed: the artifacts cannot be trusted.
std::string Verdict(const Triage& triage) {
  bool fatal = false;
  for (const auto& [rule, window] : triage.rules) {
    if (window.severity == "fatal") fatal = true;
  }
  if (!triage.have_manifest || !triage.finalized || fatal ||
      triage.exit_status != 0.0 || triage.malformed_lines > 0 ||
      !triage.seq_monotonic) {
    return "failed";
  }
  if (!triage.rules.empty()) return "degraded";
  return "healthy";
}

std::string FormatEpochWindow(const RuleWindow& window) {
  char buf[64];
  if (window.first_epoch < 0 && window.last_epoch < 0) {
    return "(no epoch)";
  }
  if (window.first_epoch == window.last_epoch) {
    std::snprintf(buf, sizeof(buf), "epoch %g", window.first_epoch);
  } else {
    std::snprintf(buf, sizeof(buf), "epochs %g..%g", window.first_epoch,
                  window.last_epoch);
  }
  return buf;
}

void PrintText(const std::string& run_dir, const Triage& triage,
               const std::string& verdict) {
  std::printf("run: %s (%s)\n", run_dir.c_str(),
              triage.run_id.empty() ? "no manifest" : triage.run_id.c_str());
  if (triage.have_manifest) {
    std::printf("manifest: finalized=%s exit_status=%g%s\n",
                triage.finalized ? "true" : "false", triage.exit_status,
                triage.crash_flush ? " (crash flush)" : "");
  } else {
    std::printf("manifest: MISSING or unparseable\n");
  }
  if (triage.have_events) {
    std::printf("journal: %zu events", triage.num_events);
    if (triage.malformed_lines > 0) {
      std::printf(", %zu MALFORMED lines", triage.malformed_lines);
    }
    if (!triage.seq_monotonic) std::printf(", seq NOT monotonic");
    if (!triage.stages.empty()) {
      std::printf("; stages:");
      for (const std::string& stage : triage.stages) {
        std::printf(" %s", stage.c_str());
      }
    }
    std::printf("\n");
  } else {
    std::printf("journal: no events.jsonl\n");
  }
  if (triage.rules.empty()) {
    std::printf("alerts: none\n");
  } else {
    std::printf("alerts:\n");
    for (const auto& [rule, window] : triage.rules) {
      std::printf("  %-16s %-5s x%u  %s  %s\n", rule.c_str(),
                  window.severity.c_str(), window.count,
                  FormatEpochWindow(window).c_str(),
                  window.last_message.c_str());
    }
  }
  if (!triage.probes.empty()) {
    const ProbePoint& first = triage.probes.front();
    const ProbePoint& last = triage.probes.back();
    std::printf(
        "fairness trend (%zu probes): disparity_gap %.4g -> %.4g, "
        "discrepancy %.4g -> %.4g\n",
        triage.probes.size(), first.disparity_gap, last.disparity_gap,
        first.discrepancy_mean, last.discrepancy_mean);
  }
  std::printf("verdict: %s\n", verdict.c_str());
}

void PrintJson(const std::string& run_dir, const Triage& triage,
               const std::string& verdict) {
  std::string out = "{\n";
  out += "  \"run_dir\": " + JsonQuote(run_dir) + ",\n";
  out += "  \"run_id\": " + JsonQuote(triage.run_id) + ",\n";
  out += "  \"finalized\": ";
  out += triage.finalized ? "true" : "false";
  out += ",\n  \"exit_status\": " + std::to_string(triage.exit_status);
  out += ",\n  \"crash_flush\": ";
  out += triage.crash_flush ? "true" : "false";
  out += ",\n  \"num_events\": " + std::to_string(triage.num_events);
  out += ",\n  \"alerts\": {";
  bool first_rule = true;
  for (const auto& [rule, window] : triage.rules) {
    if (!first_rule) out += ",";
    first_rule = false;
    out += "\n    " + JsonQuote(rule) + ": {\"severity\": " +
           JsonQuote(window.severity) +
           ", \"count\": " + std::to_string(window.count) +
           ", \"first_epoch\": " + std::to_string(window.first_epoch) +
           ", \"last_epoch\": " + std::to_string(window.last_epoch) + "}";
  }
  out += triage.rules.empty() ? "},\n" : "\n  },\n";
  if (!triage.probes.empty()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"disparity_gap_first\": %.17g,\n"
                  "  \"disparity_gap_last\": %.17g,\n",
                  triage.probes.front().disparity_gap,
                  triage.probes.back().disparity_gap);
    out += buf;
  }
  out += "  \"verdict\": " + JsonQuote(verdict) + "\n}\n";
  std::fputs(out.c_str(), stdout);
}

int Main(int argc, char** argv) {
  std::string dir;
  bool as_json = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: fairgen_doctor <run_dir> [--json]\n");
      return 0;
    } else if (StrStartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return 3;
    } else if (dir.empty()) {
      dir = std::string(arg);
    } else {
      std::fprintf(stderr, "usage: fairgen_doctor <run_dir> [--json]\n");
      return 3;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: fairgen_doctor <run_dir> [--json]\n");
    return 3;
  }
  auto run_dir = ResolveRunDir(dir);
  if (!run_dir.ok()) {
    std::fprintf(stderr, "%s\n", run_dir.status().ToString().c_str());
    return 3;
  }
  Triage triage;
  ReadManifest(*run_dir, &triage);
  ReadEvents(*run_dir, &triage);
  const std::string verdict = Verdict(triage);
  if (as_json) {
    PrintJson(*run_dir, triage, verdict);
  } else {
    PrintText(*run_dir, triage, verdict);
  }
  if (verdict == "healthy") return 0;
  if (verdict == "degraded") return 1;
  return 2;
}

}  // namespace
}  // namespace fairgen::doctor

int main(int argc, char** argv) { return fairgen::doctor::Main(argc, argv); }
