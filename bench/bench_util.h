#ifndef FAIRGEN_BENCH_BENCH_UTIL_H_
#define FAIRGEN_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "eval/model_zoo.h"

namespace fairgen::bench {

/// \brief Command-line options shared by the figure/table benches.
///
/// Defaults run the *quick CPU profile*: Table-I datasets scaled down and
/// small training budgets, so that the whole harness finishes in minutes.
/// `--full` switches to paper-scale datasets and budgets (hours on CPU).
struct BenchOptions {
  bool full = false;          ///< --full
  double scale = 0.05;        ///< --scale=<f>: dataset scale when not full
  uint64_t seed = 7;          ///< --seed=<n>
  uint32_t threads = 0;       ///< --threads=<n>: 0 = process default
  std::string datasets;       ///< --datasets=BLOG,ACM (empty = all)
  std::string output_csv;     ///< --csv=<path>: also write the table as CSV
  std::string metrics_out;    ///< --metrics-out=<path>: registry JSON at exit
  std::string trace_out;      ///< --trace-out=<path>: trace at exit (Chrome
                              ///< trace-event JSON for *.perfetto.json /
                              ///< *.chrome.json, flat span JSON otherwise)
  std::string log_level;      ///< --log-level=<name>: overrides env/default
  std::string telemetry_dir;  ///< --telemetry-dir=<dir>: live run telemetry
                              ///< (run.json/snapshot.json/metrics.prom in a
                              ///< per-run directory under <dir>)
  uint32_t telemetry_interval_ms = 1000;  ///< --telemetry-interval-ms=<n>
  std::string checkpoint_dir;        ///< --checkpoint-dir=<d>: fault-tolerant
                                     ///< FairGen training checkpoints (one
                                     ///< subdirectory per dataset/variant)
  uint32_t checkpoint_every = 1;     ///< --checkpoint-every=<n> cycles
  uint32_t checkpoint_retain = 3;    ///< --checkpoint-retain=<n> files kept
  bool resume = false;               ///< --resume: continue from the newest
                                     ///< valid checkpoint (bit-identical to
                                     ///< the uninterrupted run)
  uint32_t profile_hz = 0;           ///< --profile-hz=<n>: SIGPROF sampling
                                     ///< profiler at <n> Hz (0 = off; the
                                     ///< FAIRGEN_PROF_HZ env var is the
                                     ///< fallback when the flag is absent)
  bool watchdog = false;             ///< --watchdog: run-health rule engine
                                     ///< on the telemetry tick (requires
                                     ///< --telemetry-dir)
  uint64_t rss_budget_mb = 0;        ///< --rss-budget-mb=<n>: fatal watchdog
                                     ///< rule on process RSS (requires
                                     ///< --watchdog; 0 = off)
  uint32_t probe_every = 0;          ///< --probe-every=<n>: in-training
                                     ///< fairness probe cadence in cycles
                                     ///< (FairGen fits only; requires
                                     ///< --telemetry-dir; 0 = off)

  /// Effective dataset scale.
  double EffectiveScale() const { return full ? 1.0 : scale; }
};

/// \brief Parses argv; prints usage and exits on --help or bad flags.
BenchOptions ParseOptions(int argc, char** argv, const char* description);

/// \brief The evaluation zoo budget for the current profile.
ZooConfig MakeZooConfig(const BenchOptions& options);

/// \brief Datasets selected by the options (all Table I rows by default,
/// filtered by --datasets), pre-scaled.
std::vector<DatasetSpec> SelectDatasets(const BenchOptions& options,
                                        bool labeled_only);

/// \brief Prints a table and optionally writes it to --csv.
void EmitTable(const Table& table, const BenchOptions& options,
               const std::string& title);

}  // namespace fairgen::bench

#endif  // FAIRGEN_BENCH_BENCH_UTIL_H_
