#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/prof.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "common/watchdog.h"

namespace fairgen::bench {

namespace {

// Telemetry destinations for the atexit hook below. Plain statics: set once
// during ParseOptions, read once at process exit.
std::string g_metrics_out;
std::string g_trace_out;

void WriteTelemetryAtExit() {
  memprobe::Sample("exit");
  // Stop the profiler before the publisher's final snapshot so the last
  // ring contents make it into profile.folded / profile_top.json.
  prof::Profiler::Global().Stop();
  // atexit cannot observe the exit code; a bench that got here exited
  // normally, so finalize the run manifest as a success. Signal deaths go
  // through telemetry::InstallSignalFlush instead, which records 128+sig.
  telemetry::Publisher::StopGlobal(0);
  if (!g_metrics_out.empty()) {
    Status s = metrics::MetricsRegistry::Global().WriteJson(g_metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n", s.ToString().c_str());
    } else {
      std::printf("(metrics written to %s)\n", g_metrics_out.c_str());
    }
  }
  if (!g_trace_out.empty()) {
    Status s = trace::Tracer::Global().WriteAuto(g_trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
    } else {
      std::printf("(trace written to %s)\n", g_trace_out.c_str());
    }
  }
}

// Strict numeric-flag parsing (common/strings ParseUint): the whole value
// must be a base-10 integer in range, else the flag is an exit-2 error —
// never the silent 0 / wrapped huge value the old null-endptr strtoul
// calls produced.
template <typename T>
T ParseUintFlagOrDie(const char* flag, std::string_view text) {
  Result<uint64_t> parsed = ParseUint(text, std::numeric_limits<T>::max());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad %s='%s': %s\n", flag,
                 std::string(text).c_str(),
                 std::string(parsed.status().message()).c_str());
    std::exit(2);
  }
  return static_cast<T>(*parsed);
}

// --scale must be a whole finite number in (0, 1]: strtod with an end
// pointer, so "0.1x" and "nan" are exit-2 errors rather than 0.1 and a NaN
// that slips past the range check.
double ParseScaleOrDie(std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  const double scale = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(scale) || scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "bad --scale='%s' (want a number in (0, 1])\n",
                 value.c_str());
    std::exit(2);
  }
  return scale;
}

}  // namespace

BenchOptions ParseOptions(int argc, char** argv, const char* description) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--full") {
      options.full = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "%s\n\nFlags:\n"
          "  --full             paper-scale datasets and budgets\n"
          "  --scale=<f>        dataset scale for the quick profile "
          "(default 0.05)\n"
          "  --seed=<n>         RNG seed (default 7)\n"
          "  --threads=<n>      worker threads (0 = default; results are\n"
          "                     identical for every value)\n"
          "  --datasets=A,B     restrict to named Table-I datasets\n"
          "  --csv=<path>       also write results as CSV\n"
          "  --metrics-out=<p>  write the metrics registry as JSON at exit\n"
          "  --trace-out=<p>    enable tracing, write spans at exit\n"
          "                     (*.perfetto.json / *.chrome.json load in\n"
          "                     ui.perfetto.dev; other paths: flat JSON)\n"
          "  --log-level=<l>    debug|info|warning|error (default: the\n"
          "                     FAIRGEN_LOG_LEVEL env var, else warning)\n"
          "  --telemetry-dir=<d>        live telemetry: per-run directory\n"
          "                             under <d> with run.json manifest +\n"
          "                             periodic snapshot.json/metrics.prom\n"
          "  --telemetry-interval-ms=<n> snapshot period (default 1000)\n"
          "  --checkpoint-dir=<d>       fault-tolerant FairGen training\n"
          "                             checkpoints (ckpt-*.fgckpt under a\n"
          "                             per-dataset/variant subdirectory)\n"
          "  --checkpoint-every=<n>     cycles between checkpoints "
          "(default 1)\n"
          "  --checkpoint-retain=<n>    checkpoint files kept (default 3)\n"
          "  --resume                   continue each FairGen fit from its\n"
          "                             newest valid checkpoint\n"
          "  --profile-hz=<n>           sample call stacks at <n> Hz of CPU\n"
          "                             time (SIGPROF profiler; writes\n"
          "                             profile.folded + profile_top.json\n"
          "                             into the telemetry run dir; the\n"
          "                             FAIRGEN_PROF_HZ env var is the\n"
          "                             fallback when the flag is absent)\n"
          "  --watchdog                 run-health rule engine on the\n"
          "                             telemetry tick (requires\n"
          "                             --telemetry-dir): alert events in\n"
          "                             events.jsonl; fatal rules abort\n"
          "                             (128+SIGTERM)\n"
          "  --rss-budget-mb=<n>        fatal watchdog rule: abort when RSS\n"
          "                             exceeds <n> MiB (requires --watchdog)\n"
          "  --probe-every=<n>          in-training fairness probe every <n>\n"
          "                             self-paced cycles (requires\n"
          "                             --telemetry-dir; probe events in\n"
          "                             events.jsonl; FairGen fits; outputs\n"
          "                             stay bit-identical)\n",
          description);
      std::exit(0);
    } else if (StrStartsWith(arg, "--scale=")) {
      options.scale = ParseScaleOrDie(arg.substr(8));
    } else if (StrStartsWith(arg, "--seed=")) {
      options.seed = ParseUintFlagOrDie<uint64_t>("--seed", arg.substr(7));
    } else if (StrStartsWith(arg, "--threads=")) {
      options.threads =
          ParseUintFlagOrDie<uint32_t>("--threads", arg.substr(10));
    } else if (StrStartsWith(arg, "--datasets=")) {
      options.datasets = std::string(arg.substr(11));
    } else if (StrStartsWith(arg, "--csv=")) {
      options.output_csv = std::string(arg.substr(6));
    } else if (StrStartsWith(arg, "--metrics-out=")) {
      options.metrics_out = std::string(arg.substr(14));
    } else if (StrStartsWith(arg, "--trace-out=")) {
      options.trace_out = std::string(arg.substr(12));
    } else if (StrStartsWith(arg, "--log-level=")) {
      options.log_level = std::string(arg.substr(12));
    } else if (StrStartsWith(arg, "--telemetry-dir=")) {
      options.telemetry_dir = std::string(arg.substr(16));
    } else if (StrStartsWith(arg, "--telemetry-interval-ms=")) {
      options.telemetry_interval_ms = ParseUintFlagOrDie<uint32_t>(
          "--telemetry-interval-ms", arg.substr(24));
    } else if (StrStartsWith(arg, "--checkpoint-dir=")) {
      options.checkpoint_dir = std::string(arg.substr(17));
    } else if (StrStartsWith(arg, "--checkpoint-every=")) {
      options.checkpoint_every =
          ParseUintFlagOrDie<uint32_t>("--checkpoint-every", arg.substr(19));
    } else if (StrStartsWith(arg, "--checkpoint-retain=")) {
      options.checkpoint_retain =
          ParseUintFlagOrDie<uint32_t>("--checkpoint-retain", arg.substr(20));
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (StrStartsWith(arg, "--profile-hz=")) {
      options.profile_hz =
          ParseUintFlagOrDie<uint32_t>("--profile-hz", arg.substr(13));
      if (options.profile_hz == 0 || options.profile_hz > 10000) {
        std::fprintf(stderr, "bad --profile-hz (want 1..10000)\n");
        std::exit(2);
      }
    } else if (arg == "--watchdog") {
      options.watchdog = true;
    } else if (StrStartsWith(arg, "--rss-budget-mb=")) {
      options.rss_budget_mb =
          ParseUintFlagOrDie<uint64_t>("--rss-budget-mb", arg.substr(16));
      if (options.rss_budget_mb == 0) {
        std::fprintf(stderr, "bad --rss-budget-mb (want >= 1)\n");
        std::exit(2);
      }
    } else if (StrStartsWith(arg, "--probe-every=")) {
      options.probe_every =
          ParseUintFlagOrDie<uint32_t>("--probe-every", arg.substr(14));
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  // Log level: explicit flag > FAIRGEN_LOG_LEVEL env var > quiet default.
  LogLevel level;
  if (!options.log_level.empty()) {
    if (!ParseLogLevel(options.log_level, &level)) {
      std::fprintf(stderr, "bad --log-level: %s\n", options.log_level.c_str());
      std::exit(2);
    }
    SetLogLevel(level);
  } else if (!InitLogLevelFromEnv()) {
    SetLogLevel(LogLevel::kWarning);
  }
  if (options.threads != 0) SetDefaultNumThreads(options.threads);
  if (options.watchdog && options.telemetry_dir.empty()) {
    std::fprintf(stderr, "--watchdog requires --telemetry-dir\n");
    std::exit(2);
  }
  if (options.probe_every > 0 && options.telemetry_dir.empty()) {
    std::fprintf(stderr, "--probe-every requires --telemetry-dir\n");
    std::exit(2);
  }
  if (options.rss_budget_mb > 0 && !options.watchdog) {
    std::fprintf(stderr, "--rss-budget-mb requires --watchdog\n");
    std::exit(2);
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    std::exit(2);
  }
  if (!options.checkpoint_dir.empty() &&
      (options.checkpoint_every == 0 || options.checkpoint_retain == 0)) {
    std::fprintf(stderr,
                 "--checkpoint-every/--checkpoint-retain must be >= 1\n");
    std::exit(2);
  }
  // Flag wins over the FAIRGEN_PROF_HZ env fallback (same precedence as
  // --log-level vs FAIRGEN_LOG_LEVEL).
  if (options.profile_hz == 0) options.profile_hz = prof::HzFromEnv();
  const bool any_telemetry = !options.metrics_out.empty() ||
                             !options.trace_out.empty() ||
                             !options.telemetry_dir.empty() ||
                             options.profile_hz > 0;
  if (any_telemetry) {
    g_metrics_out = options.metrics_out;
    g_trace_out = options.trace_out;
    if (!options.trace_out.empty()) {
      trace::Tracer::Global().SetEnabled(true);
    }
    // Force-construct both singletons now so they outlive (are destroyed
    // after, i.e. never — they are leaked) the atexit handler that reads
    // them.
    metrics::MetricsRegistry::Global();
    std::atexit(WriteTelemetryAtExit);
    // SIGTERM/SIGINT/abort would skip atexit entirely — flush telemetry
    // best-effort from the signal path too (and finalize the run
    // manifest with 128+sig).
    telemetry::InstallSignalFlush(&WriteTelemetryAtExit);
  }
  if (options.watchdog) {
    watchdog::Options wd;
    wd.enabled = true;
    wd.rss_budget_mb = options.rss_budget_mb;
    // Same arming rule as the CLI: with checkpointing on, fatal rules wait
    // for one completed cycle so the emergency buffer holds a valid state.
    wd.fatal_arm_cycles = options.checkpoint_dir.empty() ? 0 : 1;
    watchdog::Watchdog::Global().Configure(wd);
  }
  if (!options.telemetry_dir.empty()) {
    telemetry::PublisherOptions pub;
    pub.dir = options.telemetry_dir;
    pub.interval_ms = options.telemetry_interval_ms;
    pub.binary = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) pub.args.emplace_back(argv[i]);
    pub.seed = options.seed;
    pub.threads = options.threads;
    auto publisher = telemetry::Publisher::StartGlobal(std::move(pub));
    if (!publisher.ok()) {
      std::fprintf(stderr, "telemetry start failed: %s\n",
                   publisher.status().ToString().c_str());
      std::exit(2);
    }
    std::printf("(telemetry run dir: %s)\n", (*publisher)->run_dir().c_str());
  }
  if (options.profile_hz > 0) {
    prof::ProfilerOptions prof_options;
    prof_options.hz = options.profile_hz;
    Status s = prof::Profiler::Global().Start(prof_options);
    if (!s.ok()) {
      std::fprintf(stderr, "profiler start failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
    std::printf("(profiling at %u Hz)\n", options.profile_hz);
  }
  return options;
}

ZooConfig MakeZooConfig(const BenchOptions& options) {
  ZooConfig cfg;
  if (options.full) {
    // Towards the paper's settings (Sec. III-B): T=10, 20 epochs, dim 100.
    cfg.labels_per_class = 10;
    cfg.walk_budget.walk_length = 10;
    cfg.walk_budget.num_walks = 2000;
    cfg.walk_budget.epochs = 20;
    cfg.walk_budget.gen_transition_multiplier = 8.0;
    cfg.fairgen.walk_length = 10;
    cfg.fairgen.num_walks = 2000;
    cfg.fairgen.self_paced_cycles = 5;
    cfg.fairgen.generator_epochs = 4;
    cfg.fairgen.embedding_dim = 100;
    cfg.fairgen.num_heads = 4;
    cfg.fairgen.ffn_dim = 200;
    cfg.fairgen.gen_transition_multiplier = 8.0;
    cfg.gae.epochs = 200;
  } else {
    cfg.labels_per_class = 5;
    cfg.walk_budget.walk_length = 10;
    cfg.walk_budget.num_walks = 250;
    cfg.walk_budget.epochs = 2;
    cfg.walk_budget.gen_transition_multiplier = 3.0;
    cfg.fairgen.walk_length = 10;
    cfg.fairgen.num_walks = 250;
    cfg.fairgen.self_paced_cycles = 4;
    cfg.fairgen.generator_epochs = 2;
    cfg.fairgen.embedding_dim = 32;
    cfg.fairgen.ffn_dim = 48;
    cfg.fairgen.gen_transition_multiplier = 3.0;
    cfg.gae.epochs = 40;
  }
  // 0 defers to the process-wide default, which --threads overrides at
  // startup; results are bit-identical for every thread count.
  cfg.fairgen.num_threads = options.threads;
  cfg.walk_budget.num_threads = options.threads;
  // Fault tolerance: the zoo appends a per-dataset/variant subdirectory so
  // concurrent fits never share checkpoint files.
  cfg.fairgen.checkpoint.dir = options.checkpoint_dir;
  cfg.fairgen.checkpoint.every_cycles = options.checkpoint_every;
  cfg.fairgen.checkpoint.retain = options.checkpoint_retain;
  cfg.fairgen.checkpoint.resume = options.resume;
  cfg.fairgen.probe_every = options.probe_every;
  return cfg;
}

std::vector<DatasetSpec> SelectDatasets(const BenchOptions& options,
                                        bool labeled_only) {
  std::vector<DatasetSpec> base =
      labeled_only ? LabeledTableIDatasets() : TableIDatasets();
  std::vector<DatasetSpec> selected;
  if (options.datasets.empty()) {
    selected = base;
  } else {
    std::vector<std::string> wanted = StrSplit(options.datasets, ',');
    for (std::string& w : wanted) {
      std::transform(w.begin(), w.end(), w.begin(), ::toupper);
    }
    for (const DatasetSpec& spec : base) {
      if (std::find(wanted.begin(), wanted.end(), spec.name) !=
          wanted.end()) {
        selected.push_back(spec);
      }
    }
  }
  if (!options.full) {
    for (DatasetSpec& spec : selected) {
      spec = ScaleDataset(spec, options.scale);
    }
  }
  return selected;
}

void EmitTable(const Table& table, const BenchOptions& options,
               const std::string& title) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.ToAscii().c_str());
  if (!options.output_csv.empty()) {
    Status s = table.WriteCsv(options.output_csv);
    if (!s.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n", s.ToString().c_str());
    } else {
      std::printf("(csv written to %s)\n", options.output_csv.c_str());
    }
  }
}

}  // namespace fairgen::bench
