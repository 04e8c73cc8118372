#ifndef FAIRGEN_CORE_RUN_OPTIONS_H_
#define FAIRGEN_CORE_RUN_OPTIONS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fairgen {

/// \brief The run flags every front end shares: the `fairgen` CLI and the
/// paper benches parse, check, start and finish a run through this one
/// module, and keep only their own flags (`--model`, `--full`, ...).
struct RunOptions {
  uint64_t seed = 7;                       ///< --seed
  uint32_t threads = 0;                    ///< --threads; 0 = all cores
  std::string log_level;                   ///< --log-level
  std::string trace_out;                   ///< --trace-out
  std::string telemetry_dir;               ///< --telemetry-dir
  uint32_t telemetry_interval_ms = 1000;   ///< --telemetry-interval-ms
  uint32_t profile_hz = 0;                 ///< --profile-hz; 0 = off
  bool watchdog = false;                   ///< --watchdog
  uint64_t rss_budget_mb = 0;              ///< --rss-budget-mb; 0 = off
  uint32_t probe_every = 0;                ///< --probe-every; 0 = off
  std::string checkpoint_dir;              ///< --checkpoint-dir
  uint32_t checkpoint_every = 1;           ///< --checkpoint-every
  uint32_t checkpoint_retain = 3;          ///< --checkpoint-retain
  bool resume = false;                     ///< --resume
};

/// Consumes `arg` into `opts` when it is a well-formed run flag. An
/// unknown flag or a malformed value (numbers parse strictly and whole,
/// `--threads=abc` is never 0) is `InvalidArgument`, which every front
/// end reports as a flag error (exit 2). A caller tries its own flags
/// first and may preset defaults in `opts`.
Status ParseRunFlag(std::string_view arg, RunOptions* opts);

/// Help text of the run flags, one indented line block per flag.
const char* RunFlagsHelp();

/// Starts a run: checks the cross-flag rules (`InvalidArgument`, a flag
/// error), sets the log level (flag > FAIRGEN_LOG_LEVEL > warning) and
/// the process thread default, enables tracing, configures the watchdog,
/// starts the telemetry publisher and the profiler (--profile-hz, else
/// FAIRGEN_PROF_HZ), and installs the SIGINT/SIGTERM/SIGABRT flush. The
/// flush writes the emergency checkpoint of every FairGen fit in flight
/// (see `FairGenTrainer::WriteLiveEmergencyCheckpoints`) and the
/// --trace-out file. Call once, before any work.
Status StartRun(const RunOptions& opts, int argc, char** argv);

/// Ends a run started by StartRun and returns the process exit status:
/// `exit_status`, or 1 when it was 0 and an output file could not be
/// written. Waits out a signal flush already under way, stops the
/// profiler, takes the `exit` stage sample, writes --trace-out, and
/// finalizes the run manifest with the returned status.
int FinishRun(int exit_status);

}  // namespace fairgen

#endif  // FAIRGEN_CORE_RUN_OPTIONS_H_
