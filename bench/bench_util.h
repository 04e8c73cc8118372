#ifndef FAIRGEN_BENCH_BENCH_UTIL_H_
#define FAIRGEN_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/strings.h"
#include "core/run_options.h"
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
  std::string datasets;       ///< --datasets=BLOG,ACM (empty = all)
  std::string output_csv;     ///< --csv=<path>: also write the table as CSV
  RunOptions run;             ///< the run flags shared with the CLI

  /// Effective dataset scale.
  double EffectiveScale() const { return full ? 1.0 : scale; }
};

/// \brief Parses argv and starts the run (core/run_options.h StartRun);
/// prints usage and exits on --help (0) or a flag error (2). A bench's
/// `main` returns through `FinishRun`.
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
