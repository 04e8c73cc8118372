// fairgen — command-line front end for the FairGen library.
//
// Subcommands:
//   stats     <edges.txt>                      print the six Table-II metrics
//   generate  <edges.txt> --out=<file> [...]   fit a model and emit a
//                                              synthetic edge list
//   evaluate  <edges.txt> [...]                fit + generate + report the
//                                              Eq. 15/16 discrepancies
//   core      <edges.txt> --nodes=<file>       diffusion core of a node set
//
// Model flags:
//   --model=fairgen|fairgen-r|fairgen-nospl|fairgen-noparity|
//           er|ba|gae|vgae|netgan|taggen       (default fairgen)
//   --labels=<file>      "node label" per line (few-shot supervision)
//   --protected=<file>   one protected node id per line
//   --walks=<n>          training walks per round (default 300)
//   --cycles=<n>         self-paced cycles (default 4)
//   --epochs=<n>         generator epochs per cycle (default 2)
// plus the run flags shared with the paper benches (core/run_options.h).

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/memprobe.h"
#include "common/strings.h"
#include "core/run_options.h"
#include "core/trainer.h"
#include "generators/ba.h"
#include "generators/er.h"
#include "generators/gae.h"
#include "generators/netgan.h"
#include "generators/taggen.h"
#include "graph/edgelist.h"
#include "graph/subgraph.h"
#include "stats/discrepancy.h"
#include "stats/extended_metrics.h"
#include "walk/diffusion_core.h"

namespace fairgen::cli {
namespace {

struct Options {
  std::string command;
  std::string edges_path;
  std::string model = "fairgen";
  std::string labels_path;
  std::string protected_path;
  std::string nodes_path;
  std::string out_path;
  std::string save_model_path;
  std::string load_model_path;
  uint32_t walks = 300;
  uint32_t cycles = 4;
  uint32_t epochs = 2;
  RunOptions run;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: fairgen <stats|generate|evaluate|core> <edges.txt> [flags]\n"
      "flags: --model=<name> --labels=<file> --protected=<file>\n"
      "       --nodes=<file> --out=<file> --walks=<n> --cycles=<n>\n"
      "       --epochs=<n>\n"
      "       --save-model=<ckpt> --load-model=<ckpt> (fairgen models)\n"
      "run flags (shared with the paper benches):\n%s",
      RunFlagsHelp());
  return 2;
}

// Strict numeric-flag parsing, as for the run flags: `--cycles=abc`,
// `--walks=12x`, or a negative value are flag errors (exit code 2 via
// Usage), never a silent 0 or a wrapped huge unsigned.
Status ParseUintFlag(std::string_view flag, std::string_view text,
                     uint32_t* out) {
  Result<uint64_t> parsed = ParseUint(text, UINT32_MAX);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad " + std::string(flag) + "='" +
                                   std::string(text) + "': " +
                                   parsed.status().message());
  }
  *out = static_cast<uint32_t>(*parsed);
  return Status::OK();
}

Result<Options> Parse(int argc, char** argv) {
  if (argc < 3) return Status::InvalidArgument("missing command or input");
  Options opts;
  opts.command = argv[1];
  if (opts.command != "stats" && opts.command != "generate" &&
      opts.command != "evaluate" && opts.command != "core") {
    return Status::InvalidArgument("unknown command: " + opts.command);
  }
  opts.edges_path = argv[2];
  opts.run.threads = 1;
  for (int i = 3; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&arg](std::string_view prefix) {
      return std::string(arg.substr(prefix.size()));
    };
    if (StrStartsWith(arg, "--model=")) {
      opts.model = value("--model=");
    } else if (StrStartsWith(arg, "--labels=")) {
      opts.labels_path = value("--labels=");
    } else if (StrStartsWith(arg, "--protected=")) {
      opts.protected_path = value("--protected=");
    } else if (StrStartsWith(arg, "--nodes=")) {
      opts.nodes_path = value("--nodes=");
    } else if (StrStartsWith(arg, "--out=")) {
      opts.out_path = value("--out=");
    } else if (StrStartsWith(arg, "--walks=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--walks", value("--walks="), &opts.walks));
    } else if (StrStartsWith(arg, "--cycles=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--cycles", value("--cycles="), &opts.cycles));
    } else if (StrStartsWith(arg, "--epochs=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--epochs", value("--epochs="), &opts.epochs));
    } else if (StrStartsWith(arg, "--save-model=")) {
      opts.save_model_path = value("--save-model=");
    } else if (StrStartsWith(arg, "--load-model=")) {
      opts.load_model_path = value("--load-model=");
    } else {
      FAIRGEN_RETURN_NOT_OK(ParseRunFlag(arg, &opts.run));
    }
  }
  return opts;
}

/// Reads "node label" pairs; returns a per-node label vector.
Result<std::vector<int32_t>> LoadLabels(const std::string& path,
                                        uint32_t num_nodes) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open labels: " + path);
  }
  std::vector<int32_t> labels(num_nodes, kUnlabeled);
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = StrSplitWhitespace(trimmed);
    if (fields.size() < 2) {
      return Status::IOError("malformed label at " + path + ":" +
                             std::to_string(line_no));
    }
    Result<uint64_t> node = ParseUint(fields[0]);
    if (!node.ok() || *node >= num_nodes) {
      return Status::InvalidArgument(
          "bad node id '" + fields[0] + "' at " + path + ":" +
          std::to_string(line_no) + ": " +
          (node.ok() ? "node out of range" : node.status().message()));
    }
    Result<int64_t> label = ParseInt(fields[1], 0, INT32_MAX);
    if (!label.ok()) {
      return Status::InvalidArgument("bad label '" + fields[1] + "' at " +
                                     path + ":" + std::to_string(line_no) +
                                     ": " + label.status().message());
    }
    labels[*node] = static_cast<int32_t>(*label);
  }
  return labels;
}

/// Reads one node id per line.
Result<std::vector<NodeId>> LoadNodeSet(const std::string& path,
                                        uint32_t num_nodes) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open node set: " + path);
  }
  std::vector<NodeId> nodes;
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    Result<uint64_t> node = ParseUint(trimmed);
    if (!node.ok() || *node >= num_nodes) {
      return Status::InvalidArgument(
          "bad node id '" + std::string(trimmed) + "' at " + path + ":" +
          std::to_string(line_no) + ": " +
          (node.ok() ? "node out of range" : node.status().message()));
    }
    nodes.push_back(static_cast<NodeId>(*node));
  }
  return nodes;
}

Result<std::unique_ptr<GraphGenerator>> BuildModel(const Options& opts,
                                                   const Graph& graph) {
  const std::string& m = opts.model;
  if ((!opts.run.checkpoint_dir.empty() || opts.run.resume) &&
      !StrStartsWith(m, "fairgen")) {
    return Status::InvalidArgument(
        "--checkpoint-dir/--resume are only supported for fairgen* models");
  }
  if (m == "er") return std::unique_ptr<GraphGenerator>(
      std::make_unique<ErdosRenyiGenerator>());
  if (m == "ba") return std::unique_ptr<GraphGenerator>(
      std::make_unique<BarabasiAlbertGenerator>());
  if (m == "gae") return std::unique_ptr<GraphGenerator>(
      std::make_unique<GaeGenerator>());
  if (m == "vgae") {
    GaeConfig cfg;
    cfg.variational = true;
    return std::unique_ptr<GraphGenerator>(
        std::make_unique<GaeGenerator>(cfg));
  }
  if (m == "netgan" || m == "taggen") {
    WalkLMTrainConfig train;
    train.num_walks = opts.walks;
    train.epochs = opts.epochs;
    train.num_threads = opts.run.threads;
    if (m == "netgan") {
      NetGanConfig cfg;
      cfg.train = train;
      return std::unique_ptr<GraphGenerator>(
          std::make_unique<NetGanGenerator>(cfg));
    }
    TagGenConfig cfg;
    cfg.train = train;
    return std::unique_ptr<GraphGenerator>(
        std::make_unique<TagGenGenerator>(cfg));
  }

  FairGenConfig cfg;
  cfg.num_walks = opts.walks;
  cfg.self_paced_cycles = opts.cycles;
  cfg.generator_epochs = opts.epochs;
  cfg.num_threads = opts.run.threads;
  cfg.checkpoint.dir = opts.run.checkpoint_dir;
  cfg.checkpoint.every_cycles = opts.run.checkpoint_every;
  cfg.checkpoint.retain = opts.run.checkpoint_retain;
  cfg.checkpoint.resume = opts.run.resume;
  cfg.probe_every = opts.run.probe_every;
  if (m == "fairgen") {
    cfg.variant = FairGenVariant::kFull;
  } else if (m == "fairgen-r") {
    cfg.variant = FairGenVariant::kRandom;
  } else if (m == "fairgen-nospl") {
    cfg.variant = FairGenVariant::kNoSelfPaced;
  } else if (m == "fairgen-noparity") {
    cfg.variant = FairGenVariant::kNoParity;
  } else {
    return Status::InvalidArgument("unknown model: " + m);
  }
  auto trainer = std::make_unique<FairGenTrainer>(cfg);

  std::vector<int32_t> labels(graph.num_nodes(), kUnlabeled);
  std::vector<NodeId> protected_set;
  if (!opts.labels_path.empty()) {
    FAIRGEN_ASSIGN_OR_RETURN(labels,
                             LoadLabels(opts.labels_path, graph.num_nodes()));
  }
  if (!opts.protected_path.empty()) {
    FAIRGEN_ASSIGN_OR_RETURN(
        protected_set, LoadNodeSet(opts.protected_path, graph.num_nodes()));
  }
  FAIRGEN_RETURN_NOT_OK(trainer->SetSupervision(labels, protected_set));
  return std::unique_ptr<GraphGenerator>(std::move(trainer));
}

void PrintMetrics(const char* title, const Graph& graph) {
  GraphMetrics m = ComputeMetrics(graph);
  std::printf("%s: n=%u m=%llu\n", title, graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));
  auto arr = m.ToArray();
  for (size_t i = 0; i < kNumGraphMetrics; ++i) {
    std::printf("  %-14s %.6g\n", MetricNames()[i].c_str(), arr[i]);
  }
}

Status RunStats(const Options& opts) {
  FAIRGEN_ASSIGN_OR_RETURN(Graph graph, LoadEdgeList(opts.edges_path));
  PrintMetrics("graph", graph);
  Rng rng(opts.run.seed);
  ExtendedGraphMetrics ext =
      ComputeExtendedMetrics(graph, /*path_samples=*/256, rng);
  std::printf("  %-14s %.6g\n", "GlobalClust", ext.global_clustering);
  std::printf("  %-14s %.6g\n", "AvgClust", ext.average_clustering);
  std::printf("  %-14s %.6g\n", "Assortativity", ext.assortativity);
  std::printf("  %-14s %.6g\n", "CharPathLen",
              ext.characteristic_path_length);
  std::printf("  %-14s %.6g\n", "LccFraction", ext.lcc_fraction);
  if (!opts.protected_path.empty()) {
    FAIRGEN_ASSIGN_OR_RETURN(
        auto protected_set,
        LoadNodeSet(opts.protected_path, graph.num_nodes()));
    FAIRGEN_ASSIGN_OR_RETURN(Subgraph sub,
                             InducedSubgraph(graph, protected_set));
    PrintMetrics("protected subgraph", sub.graph);
  }
  return Status::OK();
}

// Fit (or restore), optionally save, generate, write — in that order.
// The master rng runs through fit and then generate unsplit, so a seed
// names one output graph. Saving draws no rng, and it finishes before
// generation starts, so Generate gets the whole thread pool.
Status RunGenerate(const Options& opts) {
  if (opts.out_path.empty()) {
    return Status::InvalidArgument("generate requires --out=<file>");
  }
  FAIRGEN_ASSIGN_OR_RETURN(Graph graph, LoadEdgeList(opts.edges_path));
  memprobe::Sample("load");
  FAIRGEN_ASSIGN_OR_RETURN(std::unique_ptr<GraphGenerator> model,
                           BuildModel(opts, graph));
  auto* fairgen_trainer = dynamic_cast<FairGenTrainer*>(model.get());
  Rng rng(opts.run.seed);

  if (!opts.load_model_path.empty()) {
    if (fairgen_trainer == nullptr) {
      return Status::InvalidArgument(
          "--load-model is only supported for fairgen* models");
    }
    FAIRGEN_RETURN_NOT_OK(fairgen_trainer->Prepare(graph, rng));
    FAIRGEN_RETURN_NOT_OK(
        fairgen_trainer->LoadCheckpoint(opts.load_model_path));
    std::fprintf(stderr, "restored checkpoint %s\n",
                 opts.load_model_path.c_str());
  } else {
    std::fprintf(stderr, "fitting %s on n=%u m=%llu...\n",
                 model->name().c_str(), graph.num_nodes(),
                 static_cast<unsigned long long>(graph.num_edges()));
    FAIRGEN_RETURN_NOT_OK(model->Fit(graph, rng));
  }
  memprobe::Sample("fit");

  if (!opts.save_model_path.empty()) {
    if (fairgen_trainer == nullptr) {
      return Status::InvalidArgument(
          "--save-model is only supported for fairgen* models");
    }
    FAIRGEN_RETURN_NOT_OK(
        fairgen_trainer->SaveCheckpoint(opts.save_model_path));
    std::fprintf(stderr, "saved checkpoint %s\n",
                 opts.save_model_path.c_str());
  }

  FAIRGEN_ASSIGN_OR_RETURN(Graph generated, model->Generate(rng));
  memprobe::Sample("generate");
  FAIRGEN_RETURN_NOT_OK(SaveEdgeList(generated, opts.out_path));
  std::printf("wrote %llu edges to %s\n",
              static_cast<unsigned long long>(generated.num_edges()),
              opts.out_path.c_str());
  return Status::OK();
}

// Fit, generate, then print the overall (and, with --protected, the
// protected-set) discrepancy rows.
Status RunEvaluate(const Options& opts) {
  FAIRGEN_ASSIGN_OR_RETURN(Graph graph, LoadEdgeList(opts.edges_path));
  FAIRGEN_ASSIGN_OR_RETURN(std::unique_ptr<GraphGenerator> model,
                           BuildModel(opts, graph));
  Rng rng(opts.run.seed);
  FAIRGEN_RETURN_NOT_OK(model->Fit(graph, rng));
  FAIRGEN_ASSIGN_OR_RETURN(Graph generated, model->Generate(rng));

  std::vector<std::string> header{"scope"};
  for (const auto& name : MetricNames()) header.push_back(name);
  Table table(header);
  FAIRGEN_ASSIGN_OR_RETURN(auto overall,
                           OverallDiscrepancy(graph, generated));
  table.AddRow("overall R",
               std::vector<double>(overall.begin(), overall.end()));
  if (!opts.protected_path.empty()) {
    FAIRGEN_ASSIGN_OR_RETURN(
        auto protected_set,
        LoadNodeSet(opts.protected_path, graph.num_nodes()));
    FAIRGEN_ASSIGN_OR_RETURN(
        auto prot, ProtectedDiscrepancy(graph, generated, protected_set));
    table.AddRow("protected R+",
                 std::vector<double>(prot.begin(), prot.end()));
  }
  std::printf("%s\n", table.ToAscii().c_str());
  return Status::OK();
}

Status RunCore(const Options& opts) {
  if (opts.nodes_path.empty()) {
    return Status::InvalidArgument("core requires --nodes=<file>");
  }
  FAIRGEN_ASSIGN_OR_RETURN(Graph graph, LoadEdgeList(opts.edges_path));
  FAIRGEN_ASSIGN_OR_RETURN(auto nodes,
                           LoadNodeSet(opts.nodes_path, graph.num_nodes()));
  DiffusionCoreOptions core_opts;
  core_opts.delta = 0.9;
  core_opts.t = 2;
  FAIRGEN_ASSIGN_OR_RETURN(DiffusionCore core,
                           ComputeDiffusionCore(graph, nodes, core_opts));
  std::printf("|S|=%zu phi(S)=%.4f |core|=%zu\n", nodes.size(),
              core.conductance, core.core.size());
  std::printf("Lemma 2.1 bound for T=10: %.4f\n",
              Lemma21Bound(10, core_opts.delta, core.conductance));
  for (NodeId v : core.core) std::printf("%u\n", v);
  return Status::OK();
}

int Main(int argc, char** argv) {
  auto opts = Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return Usage();
  }
  Status started = StartRun(opts->run, argc, argv);
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return Usage();
  }
  Status status;
  if (opts->command == "stats") {
    status = RunStats(*opts);
  } else if (opts->command == "generate") {
    status = RunGenerate(*opts);
  } else if (opts->command == "evaluate") {
    status = RunEvaluate(*opts);
  } else {
    status = RunCore(*opts);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return FinishRun(status.ok() ? 0 : 1);
}

}  // namespace
}  // namespace fairgen::cli

int main(int argc, char** argv) { return fairgen::cli::Main(argc, argv); }
