// Perf-regression bench: times the pipeline's load-bearing stages (walk
// sampling, node2vec, FairGen training, generation, assembly, end-to-end)
// with warmup and repetition, writes the stable-schema BENCH_pipeline.json,
// and optionally gates on a recorded baseline (--compare).
//
// Usage:
//   bench_pipeline [--out=BENCH_pipeline.json] [--compare=baseline.json]
//                  [--warmup=N] [--repetitions=N] [--regress-threshold=F]
//                  [--scenarios=a,b,...] [bench_util flags]
//
// Exit status: 0 on success, 1 when --compare finds a regression past the
// threshold (CI gates on this).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fileio.h"
#include "common/memprobe.h"
#include "common/strings.h"
#include "core/assembler.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "embed/node2vec.h"
#include "graph/transition.h"
#include "nn/kernels/kernels.h"
#include "perf_harness.h"
#include "rng/rng.h"
#include "rng/sampling.h"
#include "walk/node2vec_walk.h"
#include "walk/random_walk.h"

namespace fairgen::bench {
namespace {

struct PipelineOptions {
  std::string out = "BENCH_pipeline.json";
  std::string compare;             // baseline path; empty = no gate
  std::string attr_out;            // attribution JSON path (needs --compare)
  uint32_t warmup = 1;
  uint32_t repetitions = 5;
  double regress_threshold = 0.25; // +25% median = regression
  std::string scenarios;           // comma-separated filter; empty = all
};

// Small training budgets: the bench times *relative* cost across commits,
// so the absolute scale only needs to exercise every stage.
FairGenConfig MakeTrainerConfig(const BenchOptions& options) {
  FairGenConfig cfg;
  cfg.walk_length = 10;
  cfg.num_walks = 120;
  cfg.self_paced_cycles = 2;
  cfg.generator_epochs = 1;
  cfg.embedding_dim = 16;
  cfg.num_heads = 2;
  cfg.ffn_dim = 32;
  cfg.gen_transition_multiplier = 2.0;
  cfg.num_threads = options.threads;
  return cfg;
}

int Run(const PipelineOptions& pipeline, const BenchOptions& options) {
  const double scale = options.EffectiveScale();
  const uint32_t n = std::max<uint32_t>(
      40, static_cast<uint32_t>(4000.0 * scale));

  SyntheticGraphConfig graph_cfg;
  graph_cfg.num_nodes = n;
  graph_cfg.num_edges = static_cast<uint64_t>(n) * 5;
  graph_cfg.num_classes = 3;
  graph_cfg.protected_size = n / 10;
  Rng data_rng(options.seed);
  auto data_result = GenerateSynthetic(graph_cfg, data_rng);
  if (!data_result.ok()) {
    std::fprintf(stderr, "synthetic graph failed: %s\n",
                 data_result.status().ToString().c_str());
    return 2;
  }
  const LabeledGraph data = data_result.MoveValueUnsafe();
  const Graph& graph = data.graph;
  memprobe::Sample("load");

  HarnessOptions harness_options;
  harness_options.warmup = pipeline.warmup;
  harness_options.repetitions = pipeline.repetitions;
  harness_options.seed = options.seed;
  harness_options.threads = options.threads;
  harness_options.scale = scale;
  PerfHarness harness(harness_options);

  // StrSplit("") yields one empty token, which would defeat the
  // "empty filter = run everything" default, so drop empty tokens.
  std::vector<std::string> wanted;
  for (std::string& name : StrSplit(pipeline.scenarios, ',')) {
    if (!name.empty()) wanted.push_back(std::move(name));
  }
  static constexpr const char* kKnownScenarios[] = {
      "walk_sampling", "node2vec_walks", "node2vec_train",
      "trainer_cycle", "generation",     "assembly",
      "end_to_end",    "micro_substrates_matmul",
      "micro_substrates_alias"};
  // The substrate microbenchmarks are tight, low-variance loops, so they
  // gate at 10% where the end-to-end stages keep the default threshold.
  harness.SetScenarioThreshold("micro_substrates_matmul", 0.10);
  harness.SetScenarioThreshold("micro_substrates_alias", 0.10);
  for (const std::string& name : wanted) {
    if (std::find(std::begin(kKnownScenarios), std::end(kKnownScenarios),
                  name) == std::end(kKnownScenarios)) {
      std::fprintf(stderr, "unknown scenario in --scenarios: %s\n",
                   name.c_str());
      return 2;
    }
  }
  auto enabled = [&wanted](const char* name) {
    return wanted.empty() ||
           std::find(wanted.begin(), wanted.end(), name) != wanted.end();
  };

  const uint32_t walk_count = n;
  const uint32_t walk_length = 10;

  if (enabled("walk_sampling")) {
    harness.RunScenario("walk_sampling", [&] {
      Rng rng(options.seed);
      RandomWalker walker(graph);
      return static_cast<uint64_t>(
          walker.SampleUniformWalks(walk_count, walk_length, rng,
                                    options.threads)
              .size());
    });
  }

  if (enabled("node2vec_walks")) {
    harness.RunScenario("node2vec_walks", [&] {
      Rng rng(options.seed);
      Node2VecWalker walker(graph, Node2VecParams{0.5, 2.0});
      return static_cast<uint64_t>(
          walker.SampleWalks(walk_count, walk_length, rng, options.threads)
              .size());
    });
  }

  if (enabled("node2vec_train")) {
    harness.RunScenario("node2vec_train", [&] {
      Rng rng(options.seed);
      Node2VecConfig cfg;
      cfg.dim = 16;
      cfg.walks_per_node = 2;
      cfg.walk_length = walk_length;
      cfg.epochs = 1;
      cfg.num_threads = options.threads;
      Node2VecModel model = Node2VecModel::Train(graph, cfg, rng);
      return static_cast<uint64_t>(model.embeddings().rows());
    });
  }

  if (enabled("trainer_cycle")) {
    harness.RunScenario("trainer_cycle", [&] {
      Rng rng(options.seed);
      FairGenTrainer trainer(MakeTrainerConfig(options));
      Status s = trainer.SetSupervision(data.labels, data.protected_set,
                                        data.num_classes);
      if (s.ok()) s = trainer.Fit(graph, rng);
      if (!s.ok()) {
        std::fprintf(stderr, "trainer_cycle failed: %s\n",
                     s.ToString().c_str());
        std::exit(2);
      }
      return static_cast<uint64_t>(trainer.config().num_walks) *
             trainer.config().self_paced_cycles;
    });
  }

  // A trainer fitted once, reused by the generation/assembly scenarios so
  // they time only their own stage.
  FairGenTrainer fitted_trainer(MakeTrainerConfig(options));
  bool need_fitted = enabled("generation") || enabled("assembly");
  if (need_fitted) {
    Rng rng(options.seed);
    Status s = fitted_trainer.SetSupervision(data.labels, data.protected_set,
                                             data.num_classes);
    if (s.ok()) s = fitted_trainer.Fit(graph, rng);
    if (!s.ok()) {
      std::fprintf(stderr, "fit for generation failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    memprobe::Sample("fit");
  }

  if (enabled("generation")) {
    harness.RunScenario("generation", [&] {
      Rng rng(options.seed + 1);
      auto generated = fitted_trainer.Generate(rng);
      if (!generated.ok()) {
        std::fprintf(stderr, "generation failed: %s\n",
                     generated.status().ToString().c_str());
        std::exit(2);
      }
      return generated->num_edges();
    });
  }

  if (enabled("assembly")) {
    // Score once (that cost belongs to the generation scenario), assemble
    // per repetition.
    Rng score_rng(options.seed + 2);
    auto scored = fitted_trainer.ScoreEdges(score_rng);
    if (!scored.ok()) {
      std::fprintf(stderr, "edge scoring failed: %s\n",
                   scored.status().ToString().c_str());
      return 2;
    }
    EdgeScoreAccumulator scores(graph.num_nodes());
    for (const auto& [edge, score] : *scored) {
      scores.AddEdge(edge.u, edge.v, score);
    }
    harness.RunScenario("assembly", [&] {
      Rng rng(options.seed + 3);
      auto assembled = AssembleFairGraph(scores, graph, data.protected_set,
                                         AssemblerCriteria{}, rng);
      if (!assembled.ok()) {
        std::fprintf(stderr, "assembly failed: %s\n",
                     assembled.status().ToString().c_str());
        std::exit(2);
      }
      return assembled->num_edges();
    });
  }

  if (enabled("micro_substrates_matmul")) {
    // The dispatched kernel in isolation, without the autograd/trainer
    // layers above it. Shape chosen to resemble the trainer's projection
    // matmuls at default scale.
    constexpr size_t kDim = 96;
    std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim);
    Rng init_rng(options.seed);
    for (float& v : a) {
      v = static_cast<float>(init_rng.UniformDouble()) - 0.5f;
    }
    for (float& v : b) {
      v = static_cast<float>(init_rng.UniformDouble()) - 0.5f;
    }
    harness.RunScenario("micro_substrates_matmul", [&] {
      constexpr uint64_t kIters = 50;
      float sink = 0.0f;
      for (uint64_t i = 0; i < kIters; ++i) {
        nn::kernels::MatMul(a.data(), b.data(), c.data(), kDim, kDim, kDim);
        sink += c[i % c.size()];
      }
      // The checksum term is 0 for any finite result; folding it into the
      // item count keeps the optimizer from eliding the kernel calls.
      return kIters + static_cast<uint64_t>(sink != sink);
    });
  }

  if (enabled("micro_substrates_alias")) {
    // Alias-table build + O(1) draws over the bench graph's degree
    // distribution — the substrate under walk start sampling and the
    // second-order transition tables.
    harness.RunScenario("micro_substrates_alias", [&] {
      Rng rng(options.seed);
      StartDistribution starts(graph,
                               StartDistribution::Kind::kDegreeProportional);
      const uint64_t draws = static_cast<uint64_t>(graph.num_nodes()) * 200;
      uint64_t sink = 0;
      for (uint64_t i = 0; i < draws; ++i) {
        sink += starts.Sample(rng);
      }
      return draws + (sink == ~uint64_t{0} ? 1 : 0);
    });
  }

  if (enabled("end_to_end")) {
    harness.RunScenario("end_to_end", [&] {
      Rng rng(options.seed);
      FairGenTrainer trainer(MakeTrainerConfig(options));
      Status s = trainer.SetSupervision(data.labels, data.protected_set,
                                        data.num_classes);
      if (s.ok()) s = trainer.Fit(graph, rng);
      if (!s.ok()) {
        std::fprintf(stderr, "end_to_end fit failed: %s\n",
                     s.ToString().c_str());
        std::exit(2);
      }
      auto generated = trainer.Generate(rng);
      if (!generated.ok()) {
        std::fprintf(stderr, "end_to_end generate failed: %s\n",
                     generated.status().ToString().c_str());
        std::exit(2);
      }
      return generated->num_edges();
    });
  }
  memprobe::Sample("scenarios_done");

  // Result table + stable-schema JSON.
  Table table({"scenario", "median_ms", "iqr_ms", "items_per_s",
               "rss_delta_mb"});
  for (const ScenarioResult& r : harness.results()) {
    table.AddRow(r.name,
                 {r.median_ms, r.iqr_ms, r.items_per_s,
                  static_cast<double>(r.rss_delta_bytes) / (1024.0 * 1024.0)},
                 3);
  }
  EmitTable(table, options, "pipeline perf profile");

  if (!pipeline.out.empty()) {
    Status s = harness.WriteJson(pipeline.out);
    if (!s.ok()) {
      std::fprintf(stderr, "result write failed: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("(results written to %s)\n", pipeline.out.c_str());
  }

  if (!pipeline.compare.empty()) {
    std::string baseline_rev;
    auto baseline = PerfHarness::LoadBaseline(pipeline.compare,
                                              &baseline_rev);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline load failed: %s\n",
                   baseline.status().ToString().c_str());
      return 2;
    }
    // Provenance check: a stale baseline silently blesses regressions that
    // landed between its commit and HEAD. Warn — don't fail — so compares
    // against intentionally old baselines still run.
    const std::string current_rev = GitRevision();
    if (baseline_rev != current_rev) {
      std::fprintf(stderr,
                   "warning: baseline %s was recorded at git rev %s but the "
                   "working tree is at %s — deltas may include unrelated "
                   "commits; re-record with --out to refresh\n",
                   pipeline.compare.c_str(), baseline_rev.c_str(),
                   current_rev.c_str());
    }
    if (!pipeline.attr_out.empty()) {
      Status s = WriteFileAtomic(
          pipeline.attr_out,
          harness.AttributionJson(*baseline, pipeline.regress_threshold));
      if (!s.ok()) {
        std::fprintf(stderr, "attribution write failed: %s\n",
                     s.ToString().c_str());
        return 2;
      }
      std::printf("(attribution written to %s)\n", pipeline.attr_out.c_str());
    }
    int regressions = harness.CompareWithBaseline(
        *baseline, pipeline.regress_threshold);
    if (regressions > 0) {
      std::fprintf(stderr, "%d scenario(s) regressed past +%.0f%%\n",
                   regressions, pipeline.regress_threshold * 100.0);
      return 1;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  // Split off this binary's own flags; the rest (scale/seed/threads/
  // telemetry/logging) go through the shared bench_util parser, which
  // exits on anything it does not know.
  PipelineOptions pipeline;
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StrStartsWith(arg, "--out=")) {
      pipeline.out = std::string(arg.substr(6));
    } else if (StrStartsWith(arg, "--compare=")) {
      pipeline.compare = std::string(arg.substr(10));
    } else if (StrStartsWith(arg, "--attr-out=")) {
      pipeline.attr_out = std::string(arg.substr(11));
    } else if (StrStartsWith(arg, "--warmup=")) {
      // Strict parse (common/strings): '--warmup=abc' is an error, not a
      // silent 0 as with the old null-endptr strtoul.
      Result<uint64_t> warmup = ParseUint(arg.substr(9), UINT32_MAX);
      if (!warmup.ok()) {
        std::fprintf(stderr, "bad --warmup: %s\n",
                     std::string(warmup.status().message()).c_str());
        return 2;
      }
      pipeline.warmup = static_cast<uint32_t>(*warmup);
    } else if (StrStartsWith(arg, "--repetitions=")) {
      Result<uint64_t> reps = ParseUint(arg.substr(14), UINT32_MAX);
      if (!reps.ok() || *reps == 0) {
        std::fprintf(stderr, "bad --repetitions: %s\n",
                     reps.ok() ? "want >= 1"
                               : std::string(reps.status().message()).c_str());
        return 2;
      }
      pipeline.repetitions = static_cast<uint32_t>(*reps);
    } else if (StrStartsWith(arg, "--regress-threshold=")) {
      pipeline.regress_threshold =
          std::atof(std::string(arg.substr(20)).c_str());
      if (pipeline.regress_threshold <= 0.0) {
        std::fprintf(stderr, "bad --regress-threshold\n");
        return 2;
      }
    } else if (StrStartsWith(arg, "--scenarios=")) {
      pipeline.scenarios = std::string(arg.substr(12));
    } else {
      if (arg == "--help" || arg == "-h") {
        std::printf(
            "bench_pipeline flags (before the shared flags below):\n"
            "  --out=<path>            result JSON (default "
            "BENCH_pipeline.json; empty = skip)\n"
            "  --compare=<path>        gate against a recorded baseline;\n"
            "                          exit 1 past the threshold\n"
            "  --attr-out=<path>       with --compare: write the regression\n"
            "                          attribution diff JSON to <path>\n"
            "  --warmup=<n>            untimed runs per scenario "
            "(default 1)\n"
            "  --repetitions=<n>       timed runs per scenario (default 5)\n"
            "  --regress-threshold=<f> median growth counted as regression\n"
            "                          (default 0.25 = +25%%)\n"
            "  --scenarios=a,b         run only the named scenarios\n\n");
      }
      forwarded.push_back(argv[i]);
    }
  }
  if (!pipeline.attr_out.empty() && pipeline.compare.empty()) {
    std::fprintf(stderr, "--attr-out requires --compare\n");
    return 2;
  }
  BenchOptions options =
      ParseOptions(static_cast<int>(forwarded.size()), forwarded.data(),
                   "Pipeline perf-regression bench: walk sampling, node2vec, "
                   "FairGen training, generation, assembly, end-to-end.");
  return Run(pipeline, options);
}

}  // namespace
}  // namespace fairgen::bench

int main(int argc, char** argv) { return fairgen::bench::Main(argc, argv); }
