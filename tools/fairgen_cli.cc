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
// Shared flags:
//   --model=fairgen|fairgen-r|fairgen-nospl|fairgen-noparity|
//           er|ba|gae|netgan|taggen            (default fairgen)
//   --labels=<file>      "node label" per line (few-shot supervision)
//   --protected=<file>   one protected node id per line
//   --seed=<n>           RNG seed (default 7)
//   --walks=<n>          training walks per round (default 300)
//   --cycles=<n>         self-paced cycles (default 4)
//   --epochs=<n>         generator epochs per cycle (default 2)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/logging.h"
#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/prof.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "common/watchdog.h"
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
  std::string metrics_out_path;
  std::string trace_out_path;
  std::string log_level;
  std::string telemetry_dir;
  std::string checkpoint_dir;
  uint32_t checkpoint_every = 1;
  uint32_t checkpoint_retain = 3;
  bool resume = false;
  uint32_t telemetry_interval_ms = 1000;
  uint32_t profile_hz = 0;            // 0 = profiler off
  bool watchdog = false;
  uint64_t rss_budget_mb = 0;         // 0 = no RSS budget rule
  uint32_t probe_every = 0;           // 0 = fairness probe off
  uint64_t seed = 7;
  uint32_t walks = 300;
  uint32_t cycles = 4;
  uint32_t epochs = 2;
  uint32_t threads = 1;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: fairgen <stats|generate|evaluate|core> <edges.txt> [flags]\n"
      "flags: --model=<name> --labels=<file> --protected=<file>\n"
      "       --nodes=<file> --out=<file> --seed=<n> --walks=<n>\n"
      "       --cycles=<n> --epochs=<n> --threads=<n>\n"
      "       --save-model=<ckpt> --load-model=<ckpt> (fairgen models)\n"
      "       --checkpoint-dir=<d>  fault tolerance (fairgen models):\n"
      "                             write ckpt-*.fgckpt training\n"
      "                             checkpoints under <d> (atomic renames;\n"
      "                             SIGINT/SIGTERM flush the latest state)\n"
      "       --checkpoint-every=<n>  cycles between checkpoints (default\n"
      "                             1; the final cycle always checkpoints)\n"
      "       --checkpoint-retain=<n>  checkpoint files kept (default 3)\n"
      "       --resume              resume from the newest valid\n"
      "                             checkpoint in --checkpoint-dir; the\n"
      "                             resumed run is bit-identical to the\n"
      "                             uninterrupted one\n"
      "       --metrics-out=<file>  write the metrics registry as JSON\n"
      "       --trace-out=<file>    enable tracing, write spans as JSON\n"
      "                             (*.perfetto.json / *.chrome.json: Chrome\n"
      "                             trace-event format for ui.perfetto.dev)\n"
      "       --telemetry-dir=<d>   live telemetry: per-run dir under <d>\n"
      "                             with run.json + periodic snapshot.json\n"
      "                             and metrics.prom (atomic renames)\n"
      "       --telemetry-interval-ms=<n>  snapshot period (default 1000)\n"
      "       --profile-hz=<n>      sampling profiler at <n> Hz: stack\n"
      "                             samples; profile.folded and\n"
      "                             profile_top.json land in the\n"
      "                             --telemetry-dir run dir (FAIRGEN_PROF_HZ\n"
      "                             is the fallback when the flag is absent)\n"
      "       --watchdog            run-health rule engine on the telemetry\n"
      "                             tick (requires --telemetry-dir): alert\n"
      "                             events in events.jsonl; fatal rules\n"
      "                             write an emergency checkpoint and\n"
      "                             abort (128+SIGTERM)\n"
      "       --rss-budget-mb=<n>   fatal watchdog rule: abort when process\n"
      "                             RSS exceeds <n> MiB (requires\n"
      "                             --watchdog)\n"
      "       --probe-every=<n>     in-training fairness probe every <n>\n"
      "                             self-paced cycles (requires\n"
      "                             --telemetry-dir): R, R+ and the NLL\n"
      "                             gap as probe events in events.jsonl\n"
      "                             (fairgen models; outputs stay\n"
      "                             bit-identical)\n"
      "       --log-level=<level>   debug|info|warning|error (default: the\n"
      "                             FAIRGEN_LOG_LEVEL env var, else "
      "warning)\n");
  return 2;
}

// Strict numeric-flag parsing (common/strings ParseInt/ParseUint): the
// whole value must be a base-10 integer in range. `--cycles=abc`,
// `--walks=12x`, or a negative value for an unsigned flag are flag errors
// (exit code 2 via Usage), never a silent 0 or a wrapped huge unsigned —
// which is what the old null-endptr strtol/strtoul calls produced.
template <typename T>
Status ParseUintFlag(std::string_view flag, std::string_view text, T* out) {
  Result<uint64_t> parsed = ParseUint(text, std::numeric_limits<T>::max());
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad " + std::string(flag) + "='" +
                                   std::string(text) + "': " +
                                   parsed.status().message());
  }
  *out = static_cast<T>(*parsed);
  return Status::OK();
}

Result<Options> Parse(int argc, char** argv) {
  if (argc < 3) return Status::InvalidArgument("missing command or input");
  Options opts;
  opts.command = argv[1];
  opts.edges_path = argv[2];
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
    } else if (StrStartsWith(arg, "--seed=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--seed", value("--seed="), &opts.seed));
    } else if (StrStartsWith(arg, "--walks=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--walks", value("--walks="), &opts.walks));
    } else if (StrStartsWith(arg, "--cycles=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--cycles", value("--cycles="), &opts.cycles));
    } else if (StrStartsWith(arg, "--epochs=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--epochs", value("--epochs="), &opts.epochs));
    } else if (StrStartsWith(arg, "--threads=")) {
      FAIRGEN_RETURN_NOT_OK(
          ParseUintFlag("--threads", value("--threads="), &opts.threads));
    } else if (StrStartsWith(arg, "--save-model=")) {
      opts.save_model_path = value("--save-model=");
    } else if (StrStartsWith(arg, "--load-model=")) {
      opts.load_model_path = value("--load-model=");
    } else if (StrStartsWith(arg, "--checkpoint-dir=")) {
      opts.checkpoint_dir = value("--checkpoint-dir=");
    } else if (StrStartsWith(arg, "--checkpoint-every=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag("--checkpoint-every",
                                          value("--checkpoint-every="),
                                          &opts.checkpoint_every));
    } else if (StrStartsWith(arg, "--checkpoint-retain=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag("--checkpoint-retain",
                                          value("--checkpoint-retain="),
                                          &opts.checkpoint_retain));
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (StrStartsWith(arg, "--metrics-out=")) {
      opts.metrics_out_path = value("--metrics-out=");
    } else if (StrStartsWith(arg, "--trace-out=")) {
      opts.trace_out_path = value("--trace-out=");
    } else if (StrStartsWith(arg, "--telemetry-dir=")) {
      opts.telemetry_dir = value("--telemetry-dir=");
    } else if (StrStartsWith(arg, "--telemetry-interval-ms=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag("--telemetry-interval-ms",
                                          value("--telemetry-interval-ms="),
                                          &opts.telemetry_interval_ms));
    } else if (StrStartsWith(arg, "--profile-hz=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag(
          "--profile-hz", value("--profile-hz="), &opts.profile_hz));
      if (opts.profile_hz == 0 || opts.profile_hz > 10000) {
        return Status::InvalidArgument("bad --profile-hz (want 1..10000)");
      }
    } else if (arg == "--watchdog") {
      opts.watchdog = true;
    } else if (StrStartsWith(arg, "--rss-budget-mb=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag(
          "--rss-budget-mb", value("--rss-budget-mb="), &opts.rss_budget_mb));
      if (opts.rss_budget_mb == 0) {
        return Status::InvalidArgument("bad --rss-budget-mb (want >= 1)");
      }
    } else if (StrStartsWith(arg, "--probe-every=")) {
      FAIRGEN_RETURN_NOT_OK(ParseUintFlag(
          "--probe-every", value("--probe-every="), &opts.probe_every));
    } else if (StrStartsWith(arg, "--log-level=")) {
      opts.log_level = value("--log-level=");
      LogLevel parsed;
      if (!ParseLogLevel(opts.log_level, &parsed)) {
        return Status::InvalidArgument("bad --log-level: " + opts.log_level);
      }
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(arg));
    }
  }
  // The explicit flag wins; FAIRGEN_PROF_HZ is the no-rebuild fallback.
  if (opts.profile_hz == 0) opts.profile_hz = prof::HzFromEnv();
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
  if ((!opts.checkpoint_dir.empty() || opts.resume) &&
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
    train.num_threads = opts.threads;
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
  cfg.num_threads = opts.threads;
  cfg.checkpoint.dir = opts.checkpoint_dir;
  cfg.checkpoint.every_cycles = opts.checkpoint_every;
  cfg.checkpoint.retain = opts.checkpoint_retain;
  cfg.checkpoint.resume = opts.resume;
  cfg.probe_every = opts.probe_every;
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
  Rng rng(opts.seed);
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

// The live FairGen trainer while a fit/generate is in flight, so
// SIGINT/SIGTERM can persist the latest completed-cycle checkpoint. The
// flush holds `g_signal_trainer_mu` while it writes, which keeps the
// trainer alive until the write is done.
std::mutex g_signal_trainer_mu;
FairGenTrainer* g_signal_trainer = nullptr;

// Publishes/clears the signal-visible trainer for the enclosing scope.
struct SignalTrainerScope {
  explicit SignalTrainerScope(FairGenTrainer* trainer) {
    std::lock_guard<std::mutex> lock(g_signal_trainer_mu);
    g_signal_trainer = trainer;
  }
  ~SignalTrainerScope() {
    std::lock_guard<std::mutex> lock(g_signal_trainer_mu);
    g_signal_trainer = nullptr;
  }
};

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
  SignalTrainerScope signal_scope(fairgen_trainer);
  Rng rng(opts.seed);

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
  SignalTrainerScope signal_scope(
      dynamic_cast<FairGenTrainer*>(model.get()));
  Rng rng(opts.seed);
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

// Options of the live invocation, for the signal-flush path (plain
// pointer set once in Main before any work runs).
const Options* g_signal_opts = nullptr;

// Writes --metrics-out / --trace-out files if requested. Runs even when the
// command failed: partial telemetry is often exactly what's needed to debug
// the failure.
Status WriteTelemetry(const Options& opts) {
  // Disarm the sampling timer and drain the rings first so the profile
  // artifacts (written by the publisher's final snapshot) are complete.
  prof::Profiler::Global().Stop();
  memprobe::Sample("exit");
  if (!opts.metrics_out_path.empty()) {
    FAIRGEN_RETURN_NOT_OK(
        metrics::MetricsRegistry::Global().WriteJson(opts.metrics_out_path));
    std::fprintf(stderr, "wrote metrics to %s\n",
                 opts.metrics_out_path.c_str());
  }
  if (!opts.trace_out_path.empty()) {
    FAIRGEN_RETURN_NOT_OK(
        trace::Tracer::Global().WriteAuto(opts.trace_out_path));
    std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                 trace::Tracer::Global().size(), opts.trace_out_path.c_str());
  }
  return Status::OK();
}

// Best-effort flush for SIGTERM/SIGINT/abort: the publisher's crash flush
// has already run by the time telemetry::InstallSignalFlush calls this;
// this covers the --metrics-out/--trace-out files that otherwise only
// appear on a normal return from Main.
void SignalExtraFlush() {
  // The training checkpoint first: it is the state the user would lose.
  // Inside the SIGABRT handler a lock may be held by the aborting thread
  // itself, so there the write is skipped rather than waited for.
  const bool wait = !telemetry::FlushingInSignalHandler();
  std::unique_lock<std::mutex> lock(g_signal_trainer_mu, std::defer_lock);
  if (wait) {
    lock.lock();
  } else {
    lock.try_lock();
  }
  if (lock.owns_lock() && g_signal_trainer != nullptr) {
    g_signal_trainer->WriteEmergencyCheckpoint(/*wait_for_lock=*/wait);
  }
  // On SIGABRT this runs inside the signal handler, where the export
  // path (it allocates and takes locks) can deadlock on the aborting
  // thread; only take that risk when there is an output file to save.
  if (g_signal_opts != nullptr && (!g_signal_opts->metrics_out_path.empty() ||
                                   !g_signal_opts->trace_out_path.empty())) {
    WriteTelemetry(*g_signal_opts);
  }
}

// Starts the live-telemetry publisher when --telemetry-dir was given.
Status StartTelemetry(const Options& opts, int argc, char** argv) {
  if (opts.telemetry_dir.empty()) {
    if (opts.watchdog) {
      return Status::InvalidArgument("--watchdog requires --telemetry-dir");
    }
    // A probe's only record is its journal event, which persists only in
    // a run dir.
    if (opts.probe_every > 0) {
      return Status::InvalidArgument(
          "--probe-every requires --telemetry-dir");
    }
    if (opts.rss_budget_mb > 0) {
      return Status::InvalidArgument("--rss-budget-mb requires --watchdog");
    }
    return Status::OK();
  }
  if (opts.rss_budget_mb > 0 && !opts.watchdog) {
    return Status::InvalidArgument("--rss-budget-mb requires --watchdog");
  }
  if (opts.watchdog) {
    watchdog::Options wd;
    wd.enabled = true;
    wd.rss_budget_mb = opts.rss_budget_mb;
    // With checkpointing on, hold fatal rules until at least one cycle
    // has completed so an emergency checkpoint is pending and the
    // SIGTERM path leaves a valid FGCKPT2 file behind.
    wd.fatal_arm_cycles = opts.checkpoint_dir.empty() ? 0 : 1;
    watchdog::Watchdog::Global().Configure(wd);
  }
  telemetry::PublisherOptions pub;
  pub.dir = opts.telemetry_dir;
  pub.interval_ms = opts.telemetry_interval_ms;
  pub.binary = argc > 0 ? argv[0] : "fairgen";
  for (int i = 1; i < argc; ++i) pub.args.emplace_back(argv[i]);
  pub.seed = opts.seed;
  pub.threads = opts.threads;
  FAIRGEN_ASSIGN_OR_RETURN(telemetry::Publisher * publisher,
                           telemetry::Publisher::StartGlobal(std::move(pub)));
  std::fprintf(stderr, "telemetry run dir: %s\n",
               publisher->run_dir().c_str());
  return Status::OK();
}

int Main(int argc, char** argv) {
  auto opts = Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return Usage();
  }
  // Log level: explicit flag > FAIRGEN_LOG_LEVEL env var > quiet default.
  LogLevel level;
  if (!opts->log_level.empty() && ParseLogLevel(opts->log_level, &level)) {
    SetLogLevel(level);
  } else if (!InitLogLevelFromEnv()) {
    SetLogLevel(LogLevel::kWarning);
  }
  if (!opts->trace_out_path.empty()) {
    trace::Tracer::Global().SetEnabled(true);
  }
  Status telemetry_start = StartTelemetry(*opts, argc, argv);
  if (!telemetry_start.ok()) {
    std::fprintf(stderr, "error: %s\n", telemetry_start.ToString().c_str());
    return Usage();
  }
  if (opts->profile_hz > 0) {
    prof::ProfilerOptions prof_options;
    prof_options.hz = opts->profile_hz;
    Status prof_start = prof::Profiler::Global().Start(prof_options);
    if (!prof_start.ok()) {
      std::fprintf(stderr, "error: profiler start failed: %s\n",
                   prof_start.ToString().c_str());
      return Usage();
    }
    std::fprintf(stderr, "profiling at %u Hz\n", opts->profile_hz);
  }
  // Crash-safe flush: a SIGTERM/SIGINT/abort mid-run still leaves a final
  // snapshot, a finalized manifest (exit status 128+sig) and the
  // --metrics-out/--trace-out files behind, best-effort.
  g_signal_opts = &*opts;
  telemetry::InstallSignalFlush(&SignalExtraFlush);
  Status status;
  if (opts->command == "stats") {
    status = RunStats(*opts);
  } else if (opts->command == "generate") {
    status = RunGenerate(*opts);
  } else if (opts->command == "evaluate") {
    status = RunEvaluate(*opts);
  } else if (opts->command == "core") {
    status = RunCore(*opts);
  } else {
    return Usage();
  }
  // A signal flush that started while the command ran ends the process
  // here; a signal that comes later is ignored, so nothing races these
  // final writes and the manifest's exit status is the process's.
  telemetry::EndSignalFlush();
  Status telemetry_status = WriteTelemetry(*opts);
  if (!telemetry_status.ok()) {
    std::fprintf(stderr, "error: %s\n", telemetry_status.ToString().c_str());
    if (status.ok()) status = telemetry_status;
  }
  const int rc = status.ok() ? 0 : 1;
  // Final snapshot + finalized manifest with the real exit status.
  telemetry::Publisher::StopGlobal(rc);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return rc;
}

}  // namespace
}  // namespace fairgen::cli

int main(int argc, char** argv) { return fairgen::cli::Main(argc, argv); }
