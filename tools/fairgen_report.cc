// fairgen_report — cross-run HTML report over telemetry run directories.
//
// Usage:
//   fairgen_report <run-dir-or-parent>... [--out=report.html] [--title=...]
//
// Each argument is either a run directory (contains run.json, written by
// the telemetry publisher) or a parent directory whose children are run
// directories (the --telemetry-dir value). The tool joins, per run, the
// manifest (run.json), the latest metrics snapshot (snapshot.json), the
// profiler's top table and the watchdog alerts, and renders one
// self-contained static HTML file: inline CSS, inline SVG charts, no
// scripts, no network fetches — it opens from a file:// URL on an
// air-gapped box.
//
// Sections (stable ids, pinned by the e2e smoke test):
//   #runs    manifest table: id, git rev, seed, threads, duration, status,
//            warnings (dropped trace spans)
//   #curves  training curves (NLL, self-paced lambda, parity regulariser,
//            total loss) as SVG polylines, one per run
//   #stages  per-stage wall/CPU breakdown from the span summaries
//   #memory  RSS and nn live bytes at each `stage` event of events.jsonl
//   #alerts  watchdog alerts from events.jsonl plus the fairness trend
//            of the in-training `probe` events: R and R+ per cycle on
//            one chart, and the walk-NLL disparity gap
//   #profile sampling-profiler top symbols (profile_top.json, when present)
//   #compare final counter/gauge values side by side

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/events.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/telemetry.h"

namespace fairgen::report {
namespace {

struct RunData {
  std::string dir;
  std::string run_id;
  json::Value manifest;
  json::Value snapshot;  // null when snapshot.json is absent
  json::Value profile;   // null when no profile_top.json (profiler off)
  // events.jsonl records, by type, in journal order.
  std::vector<events::Event> alerts;  // watchdog alerts
  std::vector<events::Event> probes;  // in-training fairness probes
  std::vector<events::Event> stages;  // stage boundaries (memory readings)
  bool has_snapshot = false;
  bool has_profile = false;
};

// Color-blind-safe categorical palette (Okabe–Ito).
const char* kPalette[] = {"#0072B2", "#E69F00", "#009E73", "#CC79A7",
                          "#D55E00", "#56B4E9", "#F0E442", "#000000"};
constexpr size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string FormatG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return std::string(buf);
}

// Loads one run directory; false when it has no readable manifest.
bool LoadRun(const std::string& dir, RunData* run) {
  auto manifest = json::ParseFile(dir + "/run.json");
  if (!manifest.ok()) return false;
  run->dir = dir;
  run->manifest = *std::move(manifest);
  run->run_id = run->manifest.GetString("run_id", dir);
  if (PathExists(dir + "/snapshot.json")) {
    auto snapshot = json::ParseFile(dir + "/snapshot.json");
    if (snapshot.ok()) {
      run->snapshot = *std::move(snapshot);
      run->has_snapshot = true;
    }
  }
  if (PathExists(dir + "/profile_top.json")) {
    auto profile = json::ParseFile(dir + "/profile_top.json");
    if (profile.ok()) {
      run->profile = *std::move(profile);
      run->has_profile = true;
    }
  }
  auto journal = events::ReadJournalFile(dir + "/events.jsonl");
  if (journal.ok()) {
    for (events::Event& event : journal->events) {
      if (event.type == events::Type::kAlert) {
        run->alerts.push_back(std::move(event));
      } else if (event.type == events::Type::kProbe) {
        run->probes.push_back(std::move(event));
      } else if (event.type == events::Type::kStage) {
        run->stages.push_back(std::move(event));
      }
    }
  }
  return true;
}

using Points = std::vector<std::pair<double, double>>;

// (step, value) points of one named series from a run's snapshot, empty
// when absent.
Points SeriesPoints(
    const RunData& run, const std::string& name) {
  Points out;
  if (!run.has_snapshot) return out;
  const json::Value* metrics = run.snapshot.Find("metrics");
  const json::Value* series =
      metrics != nullptr ? metrics->Find("series") : nullptr;
  const json::Value* points =
      series != nullptr ? series->Find(name) : nullptr;
  if (points == nullptr || !points->is_array()) return out;
  for (const json::Value& p : points->AsArray()) {
    if (p.is_array() && p.AsArray().size() == 2 &&
        p.AsArray()[0].is_number() && p.AsArray()[1].is_number()) {
      out.emplace_back(p.AsArray()[0].AsDouble(), p.AsArray()[1].AsDouble());
    }
  }
  return out;
}

struct ChartSeries {
  std::string label;
  std::string color;
  Points points;
  bool dashed = false;
};

// (x, field / divisor) points of the journal records that carry `field`;
// x is the record's epoch, or its index among `records` when `x_is_index`.
Points EventPoints(const std::vector<events::Event>& records,
                   const std::string& field, bool x_is_index,
                   double divisor = 1.0) {
  Points out;
  for (size_t i = 0; i < records.size(); ++i) {
    const double* value = records[i].Field(field);
    if (value == nullptr) continue;
    out.emplace_back(x_is_index ? static_cast<double>(i) : records[i].epoch,
                     *value / divisor);
  }
  return out;
}

// One fixed-size SVG line chart: axes, four horizontal gridlines with
// value labels, one polyline per series, legend below. Pure SVG — no
// scripts — so the report stays self-contained.
std::string SvgLineChart(const std::string& title,
                         const std::vector<ChartSeries>& series) {
  constexpr double kW = 640, kH = 280;
  constexpr double kLeft = 70, kRight = 16, kTop = 28, kBottom = 40;
  const double plot_w = kW - kLeft - kRight;
  const double plot_h = kH - kTop - kBottom;

  double x_min = 0, x_max = 1, y_min = 0, y_max = 1;
  bool any = false;
  for (const ChartSeries& s : series) {
    for (const auto& [x, y] : s.points) {
      if (!any) {
        x_min = x_max = x;
        y_min = y_max = y;
        any = true;
      }
      x_min = std::min(x_min, x);
      x_max = std::max(x_max, x);
      y_min = std::min(y_min, y);
      y_max = std::max(y_max, y);
    }
  }
  if (x_max - x_min < 1e-12) x_max = x_min + 1.0;
  if (y_max - y_min < 1e-12) y_max = y_min + (y_min == 0.0 ? 1.0 : 1e-3);
  const double y_pad = 0.05 * (y_max - y_min);
  y_min -= y_pad;
  y_max += y_pad;

  auto px = [&](double x) {
    return kLeft + (x - x_min) / (x_max - x_min) * plot_w;
  };
  auto py = [&](double y) {
    return kTop + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h;
  };

  std::string svg = "<svg viewBox=\"0 0 " + FormatG(kW) + " " +
                    FormatG(kH + 22.0 * ((series.size() + 2) / 3)) +
                    "\" class=\"chart\" role=\"img\">\n";
  svg += "<text x=\"" + FormatG(kLeft) +
         "\" y=\"16\" class=\"ctitle\">" + HtmlEscape(title) + "</text>\n";
  // Gridlines and y labels.
  for (int g = 0; g <= 4; ++g) {
    const double y = y_min + (y_max - y_min) * g / 4.0;
    const double ypix = py(y);
    svg += "<line x1=\"" + FormatG(kLeft) + "\" y1=\"" + FormatG(ypix) +
           "\" x2=\"" + FormatG(kW - kRight) + "\" y2=\"" + FormatG(ypix) +
           "\" class=\"grid\"/>\n";
    svg += "<text x=\"" + FormatG(kLeft - 6) + "\" y=\"" +
           FormatG(ypix + 4) + "\" class=\"ylab\">" + FormatG(y) +
           "</text>\n";
  }
  // X extent labels.
  svg += "<text x=\"" + FormatG(kLeft) + "\" y=\"" + FormatG(kH - 18) +
         "\" class=\"xlab\">" + FormatG(x_min) + "</text>\n";
  svg += "<text x=\"" + FormatG(kW - kRight) + "\" y=\"" +
         FormatG(kH - 18) + "\" class=\"xlab\" text-anchor=\"end\">" +
         FormatG(x_max) + "</text>\n";
  // Polylines.
  for (const ChartSeries& s : series) {
    if (s.points.empty()) continue;
    svg += "<polyline fill=\"none\" stroke=\"" + s.color +
           "\" stroke-width=\"1.8\"" +
           (s.dashed ? " stroke-dasharray=\"6 4\"" : "") + " points=\"";
    for (const auto& [x, y] : s.points) {
      svg += FormatG(px(x)) + "," + FormatG(py(y)) + " ";
    }
    svg += "\"/>\n";
  }
  // Legend.
  double lx = kLeft, ly = kH + 4;
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0 && i % 3 == 0) {
      lx = kLeft;
      ly += 22;
    }
    svg += "<rect x=\"" + FormatG(lx) + "\" y=\"" + FormatG(ly) +
           "\" width=\"12\" height=\"12\" fill=\"" + series[i].color +
           "\"/>\n";
    svg += "<text x=\"" + FormatG(lx + 16) + "\" y=\"" + FormatG(ly + 10) +
           "\" class=\"legend\">" + HtmlEscape(series[i].label) +
           "</text>\n";
    lx += 200;
  }
  svg += "</svg>\n";
  return svg;
}

// The polylines of one run in a cross-run chart: (legend suffix, points).
using RunLines = std::vector<std::pair<std::string, Points>>;

// One chart across runs: each run gets one palette color and a polyline
// per entry `lines` returns for it, the first solid and the rest dashed.
// `what` names the data in the placeholder shown when no run has any.
std::string CrossRunChart(const std::vector<RunData>& runs,
                          const std::string& title, const std::string& what,
                          const std::function<RunLines(const RunData&)>& lines) {
  std::vector<ChartSeries> chart;
  for (size_t i = 0; i < runs.size(); ++i) {
    bool dashed = false;
    for (auto& [suffix, points] : lines(runs[i])) {
      if (!points.empty()) {
        chart.push_back({runs[i].run_id + suffix,
                         kPalette[i % kPaletteSize], std::move(points),
                         dashed});
      }
      dashed = true;
    }
  }
  if (chart.empty()) {
    return "<p class=\"missing\">no " + HtmlEscape(what) +
           " recorded</p>\n";
  }
  return SvgLineChart(title, chart);
}

std::string ManifestTable(const std::vector<RunData>& runs) {
  std::string html =
      "<table><tr><th>run</th><th>binary</th><th>git rev</th><th>seed</th>"
      "<th>threads</th><th>host</th><th>duration</th><th>snapshots</th>"
      "<th>exit</th><th>warnings</th></tr>\n";
  for (const RunData& run : runs) {
    const json::Value& m = run.manifest;
    const double start = m.GetDouble("start_unix_ms", 0);
    const double end = m.GetDouble("end_unix_ms", 0);
    const json::Value* host = m.Find("host");
    std::string host_str =
        host != nullptr ? host->GetString("hostname", "?") : "?";
    std::string duration =
        end > start ? FormatG((end - start) / 1000.0) + " s" : "live";
    std::string exit_status;
    const double status = m.GetDouble("exit_status", -1);
    const json::Value* finalized = m.Find("finalized");
    if (finalized != nullptr && finalized->is_bool() &&
        !finalized->AsBool()) {
      exit_status = "running";
    } else if (status < 0) {
      exit_status = "unknown";
    } else {
      exit_status = FormatG(status);
      if (status >= 128) exit_status += " (signal)";
    }
    // Dropped trace spans silently truncate the #stages breakdown, so a
    // run whose snapshot recorded any gets a visible badge here.
    std::string warnings = "-";
    if (run.has_snapshot) {
      const double dropped = run.snapshot.GetDouble("spans_dropped", 0);
      if (dropped > 0) {
        warnings = "<span class=\"warnbadge\">" + FormatG(dropped) +
                   " spans dropped</span>";
      }
    }
    html += "<tr><td>" + HtmlEscape(run.run_id) + "</td><td>" +
            HtmlEscape(m.GetString("binary", "?")) + "</td><td>" +
            HtmlEscape(m.GetString("git_rev", "?")) + "</td><td>" +
            FormatG(m.GetDouble("seed", 0)) + "</td><td>" +
            FormatG(m.GetDouble("threads", 0)) + "</td><td>" +
            HtmlEscape(host_str) + "</td><td>" + duration + "</td><td>" +
            FormatG(m.GetDouble("snapshots", 0)) + "</td><td>" +
            exit_status + "</td><td>" + warnings + "</td></tr>\n";
  }
  html += "</table>\n";
  return html;
}

std::string StageTable(const std::vector<RunData>& runs) {
  // Union of categories across runs, then per-run wall/CPU columns with
  // an inline bar scaled to the run's total wall time.
  std::set<std::string> categories;
  for (const RunData& run : runs) {
    if (!run.has_snapshot) continue;
    const json::Value* spans = run.snapshot.Find("spans");
    if (spans == nullptr || !spans->is_object()) continue;
    for (const auto& [name, value] : spans->AsObject()) {
      (void)value;
      categories.insert(name);
    }
  }
  if (categories.empty()) {
    return "<p class=\"missing\">no span summaries recorded (runs without "
           "--trace-out have no spans)</p>\n";
  }
  std::string html = "<table><tr><th>stage</th>";
  for (const RunData& run : runs) {
    html += "<th>" + HtmlEscape(run.run_id) + " wall/cpu (ms)</th>";
  }
  html += "</tr>\n";
  std::map<std::string, double> total_wall;
  for (const RunData& run : runs) {
    const json::Value* spans =
        run.has_snapshot ? run.snapshot.Find("spans") : nullptr;
    double total = 0;
    if (spans != nullptr && spans->is_object()) {
      for (const auto& [name, value] : spans->AsObject()) {
        (void)name;
        total += value.GetDouble("wall_ns", 0);
      }
    }
    total_wall[run.run_id] = total;
  }
  for (const std::string& category : categories) {
    html += "<tr><td>" + HtmlEscape(category) + "</td>";
    for (const RunData& run : runs) {
      const json::Value* spans =
          run.has_snapshot ? run.snapshot.Find("spans") : nullptr;
      const json::Value* entry =
          spans != nullptr ? spans->Find(category) : nullptr;
      if (entry == nullptr) {
        html += "<td>-</td>";
        continue;
      }
      const double wall_ms = entry->GetDouble("wall_ns", 0) / 1e6;
      const double cpu_ms = entry->GetDouble("cpu_ns", 0) / 1e6;
      const double total = total_wall[run.run_id];
      const double pct =
          total > 0 ? entry->GetDouble("wall_ns", 0) / total * 100.0 : 0;
      html += "<td>" + FormatG(wall_ms) + " / " + FormatG(cpu_ms);
      html += "<div class=\"bar\" style=\"width:" + FormatG(pct) +
              "%\"></div></td>";
    }
    html += "</tr>\n";
  }
  html += "</table>\n";
  return html;
}

// Watchdog alerts across runs (events.jsonl `alert` records): one row per
// alert with rule, severity, firing epoch, and message. Fatal alerts get
// the warning badge — they are the reason a run died with 128+SIGTERM.
std::string AlertTable(const std::vector<RunData>& runs) {
  std::string html;
  bool any = false;
  for (const RunData& run : runs) {
    if (!run.alerts.empty()) any = true;
  }
  if (!any) {
    return "<p class=\"missing\">no watchdog alerts recorded (clean runs, "
           "or runs without --watchdog)</p>\n";
  }
  html = "<table><tr><th>run</th><th>rule</th><th>severity</th>"
         "<th>epoch</th><th>message</th></tr>\n";
  for (const RunData& run : runs) {
    for (const events::Event& alert : run.alerts) {
      std::string severity = HtmlEscape(alert.severity);
      if (alert.severity == "fatal") {
        severity = "<span class=\"warnbadge\">fatal</span>";
      }
      html += "<tr><td>" + HtmlEscape(run.run_id) + "</td><td>" +
              HtmlEscape(alert.name) + "</td><td>" + severity + "</td><td>" +
              (alert.epoch < 0 ? std::string("-") : FormatG(alert.epoch)) +
              "</td><td>" + HtmlEscape(alert.message) + "</td></tr>\n";
    }
  }
  html += "</table>\n";
  return html;
}

// Sampling-profiler top symbols (profile_top.json), one table per
// profiled run; runs without the profiler enabled are simply absent.
std::string ProfileTables(const std::vector<RunData>& runs) {
  std::string html;
  for (const RunData& run : runs) {
    if (!run.has_profile) continue;
    const json::Value& p = run.profile;
    html += "<h3>" + HtmlEscape(run.run_id) + " &mdash; " +
            FormatG(p.GetDouble("samples", 0)) + " samples";
    const double dropped = p.GetDouble("dropped", 0);
    if (dropped > 0) {
      html += ", <span class=\"warnbadge\">" + FormatG(dropped) +
              " dropped</span>";
    }
    html += "</h3>\n<table><tr><th>symbol</th><th>samples</th><th>%</th>"
            "</tr>\n";
    const json::Value* top = p.Find("top");
    if (top != nullptr && top->is_array()) {
      for (const json::Value& row : top->AsArray()) {
        const double pct = row.GetDouble("pct", 0);
        html += "<tr><td>" + HtmlEscape(row.GetString("symbol", "?")) +
                "</td><td>" + FormatG(row.GetDouble("samples", 0)) +
                "</td><td>" + FormatG(pct) +
                "<div class=\"bar\" style=\"width:" + FormatG(pct) +
                "%\"></div></td></tr>\n";
      }
    }
    html += "</table>\n";
  }
  if (html.empty()) {
    return "<p class=\"missing\">no profile_top.json found (runs without "
           "--profile-hz record no samples)</p>\n";
  }
  return html;
}

// Scalar (counter + gauge) values of one run, flattened name -> value.
std::map<std::string, double> ScalarMetrics(const RunData& run) {
  std::map<std::string, double> out;
  if (!run.has_snapshot) return out;
  const json::Value* metrics = run.snapshot.Find("metrics");
  if (metrics == nullptr) return out;
  for (const char* section : {"counters", "gauges"}) {
    const json::Value* group = metrics->Find(section);
    if (group == nullptr || !group->is_object()) continue;
    for (const auto& [name, value] : group->AsObject()) {
      if (value.is_number()) out[name] = value.AsDouble();
    }
  }
  return out;
}

std::string CompareTable(const std::vector<RunData>& runs) {
  std::vector<std::map<std::string, double>> scalars;
  std::set<std::string> names;
  for (const RunData& run : runs) {
    scalars.push_back(ScalarMetrics(run));
    for (const auto& [name, value] : scalars.back()) {
      (void)value;
      names.insert(name);
    }
  }
  if (names.empty()) {
    return "<p class=\"missing\">no scalar metrics recorded</p>\n";
  }
  std::string html = "<table><tr><th>metric</th>";
  for (const RunData& run : runs) {
    html += "<th>" + HtmlEscape(run.run_id) + "</th>";
  }
  html += "</tr>\n";
  for (const std::string& name : names) {
    html += "<tr><td>" + HtmlEscape(name) + "</td>";
    for (size_t i = 0; i < runs.size(); ++i) {
      auto it = scalars[i].find(name);
      html +=
          "<td>" + (it == scalars[i].end() ? "-" : FormatG(it->second)) +
          "</td>";
    }
    html += "</tr>\n";
  }
  html += "</table>\n";
  return html;
}

std::string RenderReport(const std::vector<RunData>& runs,
                         const std::string& title) {
  std::string html =
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      "<meta charset=\"utf-8\">\n<title>" +
      HtmlEscape(title) +
      "</title>\n<style>\n"
      "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;"
      "max-width:980px;color:#1a1a1a;padding:0 16px}\n"
      "h1{font-size:22px}h2{font-size:17px;margin-top:32px;"
      "border-bottom:1px solid #ddd;padding-bottom:4px}\n"
      "table{border-collapse:collapse;width:100%;font-size:13px}\n"
      "th,td{border:1px solid #ddd;padding:4px 8px;text-align:left;"
      "vertical-align:top}\nth{background:#f5f5f5}\n"
      ".chart{max-width:680px;display:block;margin:12px 0}\n"
      ".ctitle{font-size:13px;font-weight:600}\n"
      ".grid{stroke:#e5e5e5;stroke-width:1}\n"
      ".ylab{font-size:10px;text-anchor:end;fill:#555}\n"
      ".xlab{font-size:10px;fill:#555}\n"
      ".legend{font-size:11px;fill:#333}\n"
      ".bar{height:4px;background:#0072B2;margin-top:2px}\n"
      ".warnbadge{background:#D55E00;color:#fff;border-radius:3px;"
      "padding:1px 6px;font-size:11px;white-space:nowrap}\n"
      ".missing{color:#888;font-style:italic}\n"
      "footer{margin-top:40px;color:#888;font-size:12px}\n"
      "</style>\n</head>\n<body>\n";
  html += "<h1>" + HtmlEscape(title) + "</h1>\n";

  html += "<section id=\"runs\">\n<h2>Runs</h2>\n" + ManifestTable(runs) +
          "</section>\n";

  html += "<section id=\"curves\">\n<h2>Training curves</h2>\n";
  for (const auto& [name, what] :
       {std::pair<std::string, std::string>{"trainer.nll",
                                            "training NLL per cycle"},
        {"trainer.self_paced_lambda", "self-paced lambda"},
        {"trainer.parity_regularizer", "parity regulariser"},
        {"trainer.total_loss", "total loss"}}) {
    html += CrossRunChart(
        runs, what + " (" + name + ")", "`" + name + "` series",
        [&name](const RunData& run) {
          return RunLines{{"", SeriesPoints(run, name)}};
        });
  }
  html += "</section>\n";

  html += "<section id=\"stages\">\n<h2>Per-stage wall/CPU breakdown</h2>\n" +
          StageTable(runs) + "</section>\n";

  html += "<section id=\"memory\">\n<h2>Memory</h2>\n";
  html += CrossRunChart(
      runs,
      "MiB at each stage event (RSS solid, nn live bytes dashed; x = stage "
      "index)",
      "stage events", [](const RunData& run) {
        constexpr double kMiB = 1024.0 * 1024.0;
        return RunLines{
            {" RSS", EventPoints(run.stages, "rss_bytes", true, kMiB)},
            {" nn live", EventPoints(run.stages, "nn_bytes_live", true, kMiB)}};
      });
  html += "</section>\n";

  html += "<section id=\"alerts\">\n<h2>Run health &amp; fairness trend</h2>\n" +
          AlertTable(runs);
  html += CrossRunChart(
      runs,
      "probe generation discrepancy per cycle (R solid, protected-group R+ "
      "dashed)",
      "probe events", [](const RunData& run) {
        return RunLines{
            {" R", EventPoints(run.probes, "discrepancy_mean", false)},
            {" R+",
             EventPoints(run.probes, "protected_discrepancy_mean", false)}};
      });
  html += CrossRunChart(
      runs, "probe walk-NLL disparity gap R_S+ - R per cycle", "probe events",
      [](const RunData& run) {
        return RunLines{
            {" gap", EventPoints(run.probes, "disparity_gap", false)}};
      });
  html += "</section>\n";

  html += "<section id=\"profile\">\n<h2>Profiler top symbols</h2>\n" +
          ProfileTables(runs) + "</section>\n";

  html += "<section id=\"compare\">\n<h2>Final metric values</h2>\n" +
          CompareTable(runs) + "</section>\n";

  html += "<footer>generated by fairgen_report; self-contained (no "
          "scripts, no network)</footer>\n</body>\n</html>\n";
  return html;
}

int Main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path = "fairgen_report.html";
  std::string title = "FairGen run report";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StrStartsWith(arg, "--out=")) {
      out_path = std::string(arg.substr(6));
    } else if (StrStartsWith(arg, "--title=")) {
      title = std::string(arg.substr(8));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fairgen_report <run-dir-or-parent>... [--out=report.html]"
          " [--title=...]\n\n"
          "Joins run.json + snapshot.json + profile_top.json + events.jsonl"
          " from telemetry\nrun directories (--telemetry-dir) into one"
          " self-contained HTML report.\n");
      return 0;
    } else if (StrStartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: fairgen_report <run-dir-or-parent>... "
                 "[--out=report.html] [--title=...]\n");
    return 2;
  }

  std::vector<RunData> runs;
  for (const std::string& input : inputs) {
    std::vector<std::string> dirs = telemetry::RunDirs(input);
    if (dirs.empty()) {
      std::fprintf(stderr, "no run.json under %s\n", input.c_str());
      return 2;
    }
    for (const std::string& dir : dirs) {
      RunData run;
      if (!LoadRun(dir, &run)) {
        std::fprintf(stderr, "unreadable manifest: %s/run.json\n",
                     dir.c_str());
        return 2;
      }
      runs.push_back(std::move(run));
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunData& a, const RunData& b) {
              return a.run_id < b.run_id;
            });

  std::string html = RenderReport(runs, title);
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open for writing: %s\n", out_path.c_str());
    return 1;
  }
  const bool ok =
      std::fwrite(html.data(), 1, html.size(), file) == html.size() &&
      std::fclose(file) == 0;
  if (!ok) {
    std::fprintf(stderr, "write failed: %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu runs to %s\n", runs.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fairgen::report

int main(int argc, char** argv) {
  return fairgen::report::Main(argc, argv);
}
