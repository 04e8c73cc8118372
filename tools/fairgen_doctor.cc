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
// fairness trend across in-training probes (first -> last disparity gap,
// generation discrepancy R and, when the probes carry it, the protected
// group's discrepancy R+). `--json` emits the same triage as a JSON
// object for scripting.
//
// Exit status: 0 healthy, 1 degraded, 2 failed, 3 usage or I/O errors.

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/events.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/telemetry.h"

namespace fairgen::doctor {
namespace {

struct RuleWindow {
  std::string severity;  // worst seen: "fatal" beats "warn"
  uint32_t count = 0;
  double first_epoch = -1.0;
  double last_epoch = -1.0;
  std::string last_message;
};

// The fairness-trend fields of a probe record and their text labels. R+
// is journaled only when the run has a protected set.
constexpr std::pair<const char*, const char*> kTrendFields[] = {
    {"disparity_gap", "disparity_gap"},
    {"discrepancy_mean", "R"},
    {"protected_discrepancy_mean", "R+"}};

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
  std::vector<events::Event> probes;
  std::vector<std::string> stages;  // stage names in journal order
};

/// `dir` itself when it holds run.json; otherwise the single run
/// subdirectory under it (error when none or several).
Result<std::string> ResolveRunDir(const std::string& dir) {
  const std::vector<std::string> runs = telemetry::RunDirs(dir);
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
  auto journal = events::ReadJournalFile(run_dir + "/events.jsonl");
  if (!journal.ok()) return;
  triage->have_events = true;
  triage->malformed_lines = journal->malformed_lines.size();
  triage->num_events = journal->events.size();
  uint64_t last_seq = 0;
  for (const events::Event& event : journal->events) {
    if (event.seq <= last_seq) triage->seq_monotonic = false;
    last_seq = event.seq;
    switch (event.type) {
      case events::Type::kCrash:
        triage->crash_flush = true;
        break;
      case events::Type::kStage:
        triage->stages.push_back(event.name);
        break;
      case events::Type::kAlert: {
        RuleWindow& window = triage->rules[event.name];
        const std::string severity =
            event.severity.empty() ? "warn" : event.severity;
        if (window.count == 0 || severity == "fatal") {
          window.severity = severity;
        }
        ++window.count;
        if (window.count == 1) window.first_epoch = event.epoch;
        window.last_epoch = event.epoch;
        window.last_message = event.message;
        break;
      }
      case events::Type::kProbe:
        triage->probes.push_back(event);
        break;
      default:
        break;
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
    std::printf("fairness trend (%zu probes):", triage.probes.size());
    const char* separator = "";
    for (const auto& [field, label] : kTrendFields) {
      const double* first = triage.probes.front().Field(field);
      const double* last = triage.probes.back().Field(field);
      if (first == nullptr || last == nullptr) continue;
      std::printf("%s %s %.4g -> %.4g", separator, label, *first, *last);
      separator = ",";
    }
    std::printf("\n");
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
  for (const auto& [field, label] : kTrendFields) {
    if (triage.probes.empty()) break;
    const double* first = triage.probes.front().Field(field);
    const double* last = triage.probes.back().Field(field);
    if (first == nullptr || last == nullptr) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"%s_first\": %.17g,\n  \"%s_last\": %.17g,\n", field,
                  *first, field, *last);
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
