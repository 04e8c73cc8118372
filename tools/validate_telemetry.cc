// validate_telemetry — checks telemetry artifacts against golden schemas.
//
// Usage:
//   validate_telemetry --kind=manifest|snapshot|prometheus|folded|events
//                      --file=<artifact> --schema=<golden>
//
// Schema files live in tests/golden/ and hold one requirement per line;
// blank lines and lines starting with '#' are ignored, except `# TYPE `
// lines, which are Prometheus requirements.
//
//   manifest / snapshot  each line is a dotted key path (for example
//                        `host.hostname`) that must resolve inside the JSON
//                        document. Because metric names themselves contain
//                        dots (`metrics.series.trainer.nll`), a path segment
//                        greedily matches the longest key that is a prefix
//                        of the remaining path.
//   prometheus           each line must be a prefix of at least one line of
//                        the exposition file — used to pin `# TYPE` families
//                        and sample names without pinning values. The file
//                        must also declare each family (`# TYPE <name>`)
//                        at most once, as the text format requires.
//   events               structural check of a structured event journal
//                        (events.jsonl): every line must parse as a
//                        journal record (`events::ParseJsonLine`, the
//                        journal's own reader: `seq`, `unix_ms`, a known
//                        `type`, `name`, numeric `fields`) and `seq` must
//                        be strictly increasing in file order. Schema
//                        lines are `type=<name>`: at least one record of
//                        that type anywhere in the journal.
//   folded               structural check of a collapsed-stack profile
//                        (profile.folded): every line must be
//                        `frame[;frame...]<space><positive count>`. Each
//                        schema line must additionally occur as a substring
//                        of at least one stack line — used to pin the stack
//                        separator without pinning symbol names (symbols
//                        degrade to hex addresses on stripped builds).
//
// Exit status: 0 when every requirement holds, 1 on a validation failure
// (each miss is printed), 2 on usage or I/O errors. Wired into ctest under
// the `telemetry` label; also usable ad hoc against live run directories.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/events.h"
#include "common/json.h"
#include "common/strings.h"

namespace fairgen::validate {
namespace {

// Requirement lines of a schema file, comments and blanks stripped.
bool LoadSchemaLines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream file(path);
  if (!file.is_open()) return false;
  std::string line;
  while (std::getline(file, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() ||
        (line[0] == '#' && !StrStartsWith(line, "# TYPE "))) {
      continue;
    }
    out->push_back(line);
  }
  return true;
}

// Resolves `path` inside `value`. Each step consumes the *longest* dotted
// prefix of the remaining path that names a member of the current object,
// so `metrics.series.trainer.nll` finds {"metrics":{"series":
// {"trainer.nll": ...}}}.
bool ResolvePath(const json::Value& value, std::string_view path) {
  if (path.empty()) return true;
  if (!value.is_object()) return false;
  // Longest match first: scan candidate split points right to left.
  for (size_t end = path.size();; --end) {
    std::string_view head = path.substr(0, end);
    const json::Value* child = value.Find(head);
    if (child != nullptr) {
      if (end == path.size()) return true;
      if (ResolvePath(*child, path.substr(end + 1))) return true;
    }
    // Move `end` to the previous '.' (or finish).
    size_t dot = path.rfind('.', end == 0 ? 0 : end - 1);
    if (end == 0 || dot == std::string_view::npos) return false;
    end = dot + 1;  // loop decrement lands on the dot position
  }
}

int ValidateJson(const std::string& file,
                 const std::vector<std::string>& schema) {
  auto doc = json::ParseFile(file);
  if (!doc.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", file.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  int missing = 0;
  for (const std::string& path : schema) {
    if (!ResolvePath(*doc, path)) {
      std::fprintf(stderr, "MISSING key path: %s\n", path.c_str());
      ++missing;
    }
  }
  return missing == 0 ? 0 : 1;
}

int ValidatePrometheus(const std::string& file,
                       const std::vector<std::string>& schema) {
  std::ifstream in(file);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 2;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  int bad = 0;
  // Family name -> line number of its first `# TYPE` declaration.
  std::map<std::string, size_t> declared;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!StrStartsWith(lines[i], "# TYPE ")) continue;
    const std::string family =
        lines[i].substr(7, lines[i].find(' ', 7) - 7);
    const auto [it, added] = declared.emplace(family, i + 1);
    if (!added) {
      std::fprintf(stderr, "DUPLICATE family %s: # TYPE at lines %zu and %zu\n",
                   family.c_str(), it->second, i + 1);
      ++bad;
    }
  }
  for (const std::string& want : schema) {
    bool found = false;
    for (const std::string& have : lines) {
      if (StrStartsWith(have, want)) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "MISSING exposition line prefix: %s\n",
                   want.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

// A collapsed-stack line: `stack<space>count`, count a positive integer.
// The *last* space separates stack from count — demangled frames
// legitimately contain spaces (template arguments, function signatures),
// and flamegraph.pl/speedscope both parse greedily on the final space.
bool IsFoldedLine(const std::string& line) {
  size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0) return false;
  std::string_view count(line.data() + space + 1, line.size() - space - 1);
  if (count.empty()) return false;
  for (char c : count) {
    if (c < '0' || c > '9') return false;
  }
  return count != "0";
}

int ValidateFolded(const std::string& file,
                   const std::vector<std::string>& schema) {
  std::ifstream in(file);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 2;
  }
  std::vector<std::string> lines;
  std::string line;
  size_t line_no = 0;
  int bad = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!IsFoldedLine(line)) {
      std::fprintf(stderr, "MALFORMED folded line %zu: %s\n", line_no,
                   line.c_str());
      ++bad;
    }
    lines.push_back(line);
  }
  if (lines.empty()) {
    std::fprintf(stderr, "EMPTY profile: %s has no stack lines\n",
                 file.c_str());
    return 1;
  }
  for (const std::string& want : schema) {
    bool found = false;
    for (const std::string& have : lines) {
      if (have.find(want) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "MISSING folded substring: %s\n", want.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int ValidateEvents(const std::string& file,
                   const std::vector<std::string>& schema) {
  auto journal = events::ReadJournalFile(file);
  if (!journal.ok()) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 2;
  }
  int bad = 0;
  for (size_t line_no : journal->malformed_lines) {
    std::fprintf(stderr, "MALFORMED event line %zu\n", line_no);
    ++bad;
  }
  uint64_t last_seq = 0;  // seq starts at 1; 0 never appears in a file
  for (const events::Event& event : journal->events) {
    if (event.seq <= last_seq) {
      std::fprintf(stderr, "NON-INCREASING seq %llu after %llu\n",
                   static_cast<unsigned long long>(event.seq),
                   static_cast<unsigned long long>(last_seq));
      ++bad;
    }
    last_seq = event.seq;
  }
  if (journal->events.empty()) {
    std::fprintf(stderr, "EMPTY journal: %s has no event records\n",
                 file.c_str());
    return 1;
  }
  for (const std::string& want : schema) {
    if (!StrStartsWith(want, "type=")) {
      std::fprintf(stderr, "bad events schema line (want type=<name>): %s\n",
                   want.c_str());
      return 2;
    }
    bool found = false;
    for (const events::Event& event : journal->events) {
      found = found || want.substr(5) == events::TypeName(event.type);
    }
    if (!found) {
      std::fprintf(stderr, "MISSING event type: %s\n", want.c_str() + 5);
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string kind, file, schema_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StrStartsWith(arg, "--kind=")) {
      kind = std::string(arg.substr(7));
    } else if (StrStartsWith(arg, "--file=")) {
      file = std::string(arg.substr(7));
    } else if (StrStartsWith(arg, "--schema=")) {
      schema_path = std::string(arg.substr(9));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: validate_telemetry --kind=manifest|snapshot|prometheus|"
          "folded|events --file=<artifact> --schema=<golden>\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (kind.empty() || file.empty() || schema_path.empty()) {
    std::fprintf(stderr,
                 "usage: validate_telemetry --kind=manifest|snapshot|"
                 "prometheus|folded|events --file=<artifact> "
                 "--schema=<golden>\n");
    return 2;
  }
  std::vector<std::string> schema;
  if (!LoadSchemaLines(schema_path, &schema)) {
    std::fprintf(stderr, "cannot read schema %s\n", schema_path.c_str());
    return 2;
  }
  if (schema.empty()) {
    std::fprintf(stderr, "schema %s has no requirements\n",
                 schema_path.c_str());
    return 2;
  }
  int rc;
  if (kind == "manifest" || kind == "snapshot") {
    rc = ValidateJson(file, schema);
  } else if (kind == "prometheus") {
    rc = ValidatePrometheus(file, schema);
  } else if (kind == "folded") {
    rc = ValidateFolded(file, schema);
  } else if (kind == "events") {
    rc = ValidateEvents(file, schema);
  } else {
    std::fprintf(stderr, "bad --kind=%s\n", kind.c_str());
    return 2;
  }
  if (rc == 0) {
    std::printf("%s OK: %s satisfies %zu requirements from %s\n",
                kind.c_str(), file.c_str(), schema.size(),
                schema_path.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace fairgen::validate

int main(int argc, char** argv) {
  return fairgen::validate::Main(argc, argv);
}
