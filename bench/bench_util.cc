#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace fairgen::bench {

namespace {

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
          "  --full                   paper-scale datasets and budgets\n"
          "  --scale=<f>              dataset scale for the quick profile\n"
          "                           (default 0.05)\n"
          "  --datasets=A,B           restrict to named Table-I datasets\n"
          "  --csv=<path>             also write results as CSV\n"
          "Run flags (shared with the fairgen CLI):\n%s",
          description, RunFlagsHelp());
      std::exit(0);
    } else if (StrStartsWith(arg, "--scale=")) {
      options.scale = ParseScaleOrDie(arg.substr(8));
    } else if (StrStartsWith(arg, "--datasets=")) {
      options.datasets = std::string(arg.substr(11));
    } else if (StrStartsWith(arg, "--csv=")) {
      options.output_csv = std::string(arg.substr(6));
    } else {
      Status parsed = ParseRunFlag(arg, &options.run);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s (try --help)\n",
                     parsed.ToString().c_str());
        std::exit(2);
      }
    }
  }
  Status started = StartRun(options.run, argc, argv);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    std::exit(2);
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
  cfg.fairgen.num_threads = options.run.threads;
  cfg.walk_budget.num_threads = options.run.threads;
  // Fault tolerance: the zoo appends a per-dataset/variant subdirectory so
  // concurrent fits never share checkpoint files.
  cfg.fairgen.checkpoint.dir = options.run.checkpoint_dir;
  cfg.fairgen.checkpoint.every_cycles = options.run.checkpoint_every;
  cfg.fairgen.checkpoint.retain = options.run.checkpoint_retain;
  cfg.fairgen.checkpoint.resume = options.run.resume;
  cfg.fairgen.probe_every = options.run.probe_every;
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
