#include "core/run_options.h"

#include <cstdio>
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
#include "core/trainer.h"

namespace fairgen {
namespace {

// The options of the started run, for FinishRun and the signal flush.
// Set once by StartRun, before the flush is installed.
RunOptions g_run;

// Strict numeric parsing (common/strings ParseUint): the whole value must
// be a base-10 integer in [min_value, max value of T], else the flag is
// an error — never a silent 0 or a wrapped negative.
template <typename T>
Status ParseNumber(std::string_view flag, std::string_view text,
                   uint64_t min_value, T* out,
                   uint64_t max_value = std::numeric_limits<T>::max()) {
  Result<uint64_t> parsed = ParseUint(text, max_value);
  const std::string why =
      !parsed.ok()           ? parsed.status().message()
      : *parsed < min_value ? "want >= " + std::to_string(min_value)
                            : std::string();
  if (!why.empty()) {
    return Status::InvalidArgument("bad " + std::string(flag) + "='" +
                                   std::string(text) + "': " + why);
  }
  *out = static_cast<T>(*parsed);
  return Status::OK();
}

// Stops the profiler (so the publisher's last snapshot holds its final
// samples), takes the `exit` stage sample and writes the --metrics-out
// and --trace-out files.
Status WriteRunOutputs() {
  prof::Profiler::Global().Stop();
  memprobe::Sample("exit");
  if (!g_run.metrics_out.empty()) {
    FAIRGEN_RETURN_NOT_OK(
        metrics::MetricsRegistry::Global().WriteJson(g_run.metrics_out));
    std::fprintf(stderr, "wrote metrics to %s\n", g_run.metrics_out.c_str());
  }
  if (!g_run.trace_out.empty()) {
    FAIRGEN_RETURN_NOT_OK(trace::Tracer::Global().WriteAuto(g_run.trace_out));
    std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                 trace::Tracer::Global().size(), g_run.trace_out.c_str());
  }
  return Status::OK();
}

// Runs on SIGINT/SIGTERM/SIGABRT after the publisher's crash flush.
void FlushOnSignal() {
  // The training checkpoints first: they are the state the user would
  // lose. Inside the SIGABRT handler a lock may be held by the aborting
  // thread itself, so there a write is skipped rather than waited for.
  FairGenTrainer::WriteLiveEmergencyCheckpoints(
      /*wait_for_lock=*/!telemetry::FlushingInSignalHandler());
  // On SIGABRT this runs inside the signal handler, where the export
  // path (it allocates and takes locks) can deadlock on the aborting
  // thread; only take that risk when there is an output file to save.
  if (!g_run.metrics_out.empty() || !g_run.trace_out.empty()) {
    WriteRunOutputs();
  }
}

}  // namespace

Status ParseRunFlag(std::string_view arg, RunOptions* opts) {
  if (arg == "--watchdog") {
    opts->watchdog = true;
    return Status::OK();
  }
  if (arg == "--resume") {
    opts->resume = true;
    return Status::OK();
  }
  const size_t eq = arg.find('=');
  if (eq != std::string_view::npos) {
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value = arg.substr(eq + 1);
    if (flag == "--seed") return ParseNumber(flag, value, 0, &opts->seed);
    if (flag == "--threads") {
      return ParseNumber(flag, value, 0, &opts->threads);
    }
    if (flag == "--telemetry-interval-ms") {
      return ParseNumber(flag, value, 0, &opts->telemetry_interval_ms);
    }
    if (flag == "--profile-hz") {
      return ParseNumber(flag, value, 1, &opts->profile_hz, 10000);
    }
    if (flag == "--rss-budget-mb") {
      return ParseNumber(flag, value, 1, &opts->rss_budget_mb);
    }
    if (flag == "--probe-every") {
      return ParseNumber(flag, value, 0, &opts->probe_every);
    }
    if (flag == "--checkpoint-every") {
      return ParseNumber(flag, value, 1, &opts->checkpoint_every);
    }
    if (flag == "--checkpoint-retain") {
      return ParseNumber(flag, value, 1, &opts->checkpoint_retain);
    }
    if (flag == "--log-level") {
      LogLevel level = LogLevel::kWarning;
      if (!ParseLogLevel(value, &level)) {
        return Status::InvalidArgument("bad --log-level: " +
                                       std::string(value));
      }
      opts->log_level = std::string(value);
      return Status::OK();
    }
    std::string* path = flag == "--metrics-out"      ? &opts->metrics_out
                        : flag == "--trace-out"      ? &opts->trace_out
                        : flag == "--telemetry-dir"  ? &opts->telemetry_dir
                        : flag == "--checkpoint-dir" ? &opts->checkpoint_dir
                                                     : nullptr;
    if (path != nullptr) {
      *path = std::string(value);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown flag: " + std::string(arg));
}

const char* RunFlagsHelp() {
  return "  --seed=<n>               RNG seed (default 7)\n"
         "  --threads=<n>            worker threads (fairgen default 1,\n"
         "                           benches 0 = all cores); outputs are\n"
         "                           identical for every value\n"
         "  --log-level=<l>          debug|info|warning|error (default: the\n"
         "                           FAIRGEN_LOG_LEVEL env var, else warning)\n"
         "  --metrics-out=<file>     write the metrics registry as JSON at\n"
         "                           exit\n"
         "  --trace-out=<file>       enable tracing, write spans at exit\n"
         "                           (*.perfetto.json / *.chrome.json: Chrome\n"
         "                           trace-event format for ui.perfetto.dev;\n"
         "                           other paths: flat span JSON)\n"
         "  --telemetry-dir=<d>      live telemetry: per-run dir under <d>\n"
         "                           with run.json, periodic snapshot.json\n"
         "                           and metrics.prom, and events.jsonl\n"
         "                           (atomic renames)\n"
         "  --telemetry-interval-ms=<n>  snapshot period (default 1000)\n"
         "  --profile-hz=<n>         sampling profiler at <n> Hz (1..10000):\n"
         "                           profile.folded and profile_top.json in\n"
         "                           the --telemetry-dir run dir\n"
         "                           (FAIRGEN_PROF_HZ is the fallback when\n"
         "                           the flag is absent)\n"
         "  --watchdog               run-health rule engine on the telemetry\n"
         "                           tick (requires --telemetry-dir): alert\n"
         "                           events in events.jsonl; fatal rules\n"
         "                           write the emergency checkpoint and\n"
         "                           abort (128+SIGTERM)\n"
         "  --rss-budget-mb=<n>      fatal watchdog rule: abort when process\n"
         "                           RSS exceeds <n> MiB (requires\n"
         "                           --watchdog)\n"
         "  --probe-every=<n>        in-training fairness probe every <n>\n"
         "                           self-paced cycles of a FairGen fit\n"
         "                           (requires --telemetry-dir): R, R+ and\n"
         "                           the NLL gap as probe events in\n"
         "                           events.jsonl; outputs stay bit-identical\n"
         "  --checkpoint-dir=<d>     fault-tolerant FairGen training\n"
         "                           checkpoints ckpt-*.fgckpt under <d> (the\n"
         "                           benches add a dataset/variant subdir);\n"
         "                           SIGINT/SIGTERM write the latest\n"
         "                           completed cycle\n"
         "  --checkpoint-every=<n>   cycles between checkpoints (default 1;\n"
         "                           the final cycle always checkpoints)\n"
         "  --checkpoint-retain=<n>  checkpoint files kept (default 3)\n"
         "  --resume                 continue each FairGen fit from the\n"
         "                           newest valid checkpoint in\n"
         "                           --checkpoint-dir, bit-identical to the\n"
         "                           uninterrupted run\n";
}

Status StartRun(const RunOptions& opts, int argc, char** argv) {
  if (opts.watchdog && opts.telemetry_dir.empty()) {
    return Status::InvalidArgument("--watchdog requires --telemetry-dir");
  }
  // A probe's only record is its journal event, which persists only in a
  // run dir.
  if (opts.probe_every > 0 && opts.telemetry_dir.empty()) {
    return Status::InvalidArgument("--probe-every requires --telemetry-dir");
  }
  if (opts.rss_budget_mb > 0 && !opts.watchdog) {
    return Status::InvalidArgument("--rss-budget-mb requires --watchdog");
  }
  if (opts.resume && opts.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  g_run = opts;
  // The flag wins over the FAIRGEN_PROF_HZ fallback, as --log-level does
  // over FAIRGEN_LOG_LEVEL.
  if (g_run.profile_hz == 0) g_run.profile_hz = prof::HzFromEnv();

  LogLevel level = LogLevel::kWarning;
  if (!opts.log_level.empty() && ParseLogLevel(opts.log_level, &level)) {
    SetLogLevel(level);
  } else if (!InitLogLevelFromEnv()) {
    SetLogLevel(LogLevel::kWarning);
  }
  if (opts.threads != 0) SetDefaultNumThreads(opts.threads);
  if (!opts.trace_out.empty()) trace::Tracer::Global().SetEnabled(true);
  if (opts.watchdog) {
    watchdog::Options wd;
    wd.enabled = true;
    wd.rss_budget_mb = opts.rss_budget_mb;
    // With checkpointing on, hold fatal rules until one cycle has
    // completed, so an emergency checkpoint is pending and the SIGTERM
    // path leaves a valid FGCKPT2 file behind.
    wd.fatal_arm_cycles = opts.checkpoint_dir.empty() ? 0 : 1;
    watchdog::Watchdog::Global().Configure(wd);
  }
  if (!opts.telemetry_dir.empty()) {
    telemetry::PublisherOptions pub;
    pub.dir = opts.telemetry_dir;
    pub.interval_ms = opts.telemetry_interval_ms;
    pub.binary = argc > 0 ? argv[0] : "fairgen";
    for (int i = 1; i < argc; ++i) pub.args.emplace_back(argv[i]);
    pub.seed = opts.seed;
    pub.threads = opts.threads;
    FAIRGEN_ASSIGN_OR_RETURN(
        telemetry::Publisher * publisher,
        telemetry::Publisher::StartGlobal(std::move(pub)));
    std::fprintf(stderr, "telemetry run dir: %s\n",
                 publisher->run_dir().c_str());
  }
  if (g_run.profile_hz > 0) {
    prof::ProfilerOptions prof_options;
    prof_options.hz = g_run.profile_hz;
    Status started = prof::Profiler::Global().Start(prof_options);
    if (!started.ok()) {
      telemetry::Publisher::StopGlobal(2);
      return started;
    }
    std::fprintf(stderr, "profiling at %u Hz\n", g_run.profile_hz);
  }
  // Crash-safe flush: a SIGTERM/SIGINT/abort mid-run still leaves the
  // emergency checkpoints, a final snapshot, a finalized manifest (exit
  // status 128+sig) and the --metrics-out/--trace-out files behind,
  // best-effort.
  telemetry::InstallSignalFlush(&FlushOnSignal);
  return Status::OK();
}

int FinishRun(int exit_status) {
  // A signal flush that started while the run worked ends the process
  // here; a signal that comes later is ignored, so nothing races these
  // final writes and the manifest's exit status is the process's.
  telemetry::EndSignalFlush();
  Status written = WriteRunOutputs();
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    if (exit_status == 0) exit_status = 1;
  }
  // Final snapshot + finalized manifest with the real exit status.
  telemetry::Publisher::StopGlobal(exit_status);
  return exit_status;
}

}  // namespace fairgen
