// fairgen_benchmark: the repository benchmark driver. Runs one workload in
// this process and prints its metrics.
//
//   fairgen_benchmark --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--smoke]
//
// With --trace 0 the requests run untraced and the end-to-end metrics are
// reported. With --trace 1 each request runs twice, untraced then under
// the benchmark's own spans, and the per-layer metrics are reported from
// the spans plus layer probes at the workload's shapes. Every metric is
// printed by name with its unit; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when any output check or library call failed. Result files go
// to .bench_build/results under the working directory.
//
// --smoke shrinks every input so a workload finishes in a few seconds.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/memprobe.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "generators/er.h"
#include "nn/kernels/kernels.h"
#include "probes.h"
#include "stats/discrepancy.h"
#include "timing.h"

#ifndef FAIRGEN_BENCH_BUILD_TYPE
#define FAIRGEN_BENCH_BUILD_TYPE "unknown"
#endif

namespace fairgen_bench {
namespace {

using fairgen::FairGenConfig;
using fairgen::FairGenTrainer;
using fairgen::Graph;
using fairgen::NodeId;
using fairgen::Rng;
using fairgen::Status;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// How a request uses the trainer.
enum class Flow {
  /// Fit + Generate + eval.
  kFitRelease,
  /// Prepare + LoadCheckpoint of a model fitted in setup, then Generate +
  /// eval: the train-once/generate-many flow.
  kReleaseMany,
};

struct Workload {
  const char* name;
  Flow flow;
  /// Table-I dataset, or nullptr for a Fig. 8 Erdős–Rényi graph.
  const char* dataset;
  double scale;
  uint32_t er_nodes;
  double er_density;
  uint32_t threads;
  /// When nonzero, request 0 is re-run at this thread count after the
  /// timed loop and must release a byte-identical graph.
  uint32_t check_threads;
  /// Distinct requests per run. Request i replays request i mod distinct,
  /// and a run makes at least distinct + 1 requests, so every run
  /// re-checks at least one earlier digest.
  int distinct;
};

/// Setup repetitions; setup_s is their median. On kReleaseMany each one
/// fits one model, and request k releases from model k mod kSetupReps.
constexpr int kSetupReps = 4;

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"acm_fit_release", Flow::kFitRelease, "ACM", 0.05, 0, 0.0, 2, 0, 5},
    {"acm_fit_release_t1", Flow::kFitRelease, "ACM", 0.05, 0, 0.0, 1, 2, 5},
    {"flickr_release_many", Flow::kReleaseMany, "FLICKR", 0.15, 0, 0.0, 2, 0,
     2 * kSetupReps},
    {"fig8_er_unlabeled", Flow::kFitRelease, nullptr, 0.0, 800, 0.02, 2, 0, 5},
};

/// On kFitRelease, the model of each distinct request mints this many
/// more releases after the request, untimed except for their Generate
/// calls. One release's R+ on a small protected group is heavy-tailed, so
/// R and R+ average over every release of the run.
constexpr int kExtraReleases = 4;
/// Few-shot labels per class (the paper's few-shot setting).
constexpr uint32_t kLabelsPerClass = 5;
/// Seed of every workload's graph. The graph is fixed, as a paper dataset
/// is, and --seed drives the few-shot tie-breaks and the training and
/// generation streams. R depends on the graph far more than on the model
/// (over 10 seeds, r_mean on ACM spreads 11% with a new graph per request
/// and 3% on one graph), so only a fixed graph lets R's bound catch a
/// loss in fairness.
constexpr uint64_t kGraphSeed = 7;

/// The quick profile's model (bench/bench_util.cc): K=250 walks per round,
/// p=4 cycles, 2 generator epochs, D=32, FFN 48, 3m generated transitions.
FairGenConfig ModelConfig(const Workload& w, bool smoke) {
  FairGenConfig cfg;
  cfg.num_walks = smoke ? 16 : 250;
  cfg.self_paced_cycles = smoke ? 2 : 4;
  cfg.generator_epochs = 2;
  cfg.embedding_dim = 32;
  cfg.ffn_dim = 48;
  cfg.gen_transition_multiplier = 3.0;
  cfg.num_threads = w.threads;
  return cfg;
}

/// SplitMix64 finalizer over (a, b): independent seeds per request and
/// per purpose from the one --seed.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The workload's graph: a Table-I dataset with its labels and S+, or an
/// unlabeled Erdős–Rényi graph with no S+.
fairgen::Result<fairgen::LabeledGraph> LoadGraph(const Workload& w,
                                                 bool smoke) {
  if (w.dataset != nullptr) {
    return fairgen::LoadDataset(w.dataset, smoke ? w.scale / 5 : w.scale,
                                kGraphSeed);
  }
  // The smoke size keeps the full size's average degree.
  const uint32_t n = smoke ? w.er_nodes / 5 : w.er_nodes;
  const double avg_degree = w.er_density * (w.er_nodes - 1.0);
  const auto m = static_cast<uint64_t>(avg_degree * n / 2.0);
  Rng rng(kGraphSeed);
  fairgen::LabeledGraph data;
  FAIRGEN_ASSIGN_OR_RETURN(data.graph, fairgen::SampleErdosRenyi(n, m, rng));
  data.labels.assign(n, fairgen::kUnlabeled);
  return data;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Counts attempted and failed checks and library calls.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  bool Call(const Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.ToString());
  }
};

/// FNV-1a over the sorted canonical edge list.
uint64_t EdgeDigest(const Graph& g) {
  std::vector<fairgen::Edge> edges = g.ToEdgeList();
  for (fairgen::Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.num_nodes());
  for (const fairgen::Edge& e : edges) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

/// True when every parameter tensor of `a` equals `b`'s bit for bit.
bool SameParameters(const FairGenTrainer& a, const FairGenTrainer& b) {
  auto params = [](const FairGenTrainer& t) {
    std::vector<fairgen::nn::Var> p = t.model()->GeneratorParameters();
    for (const auto& v : t.model()->fair_module().HeadParameters()) {
      p.push_back(v);
    }
    return p;
  };
  std::vector<fairgen::nn::Var> pa = params(a);
  std::vector<fairgen::nn::Var> pb = params(b);
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const fairgen::nn::Tensor& x = pa[i]->value;
    const fairgen::nn::Tensor& y = pb[i]->value;
    if (!x.SameShape(y) ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double MegaBytes(uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// State shared by the requests of one run.
struct Run {
  const Workload* workload = nullptr;
  bool smoke = false;
  uint64_t seed = 0;
  FairGenConfig config;
  fairgen::LabeledGraph data;
  /// The few-shot labels the trainer gets (all kUnlabeled without labels).
  std::vector<int32_t> labels;
  /// kReleaseMany: the models fitted in setup and their checkpoint paths.
  std::vector<std::unique_ptr<FairGenTrainer>> models;
  std::vector<std::string> checkpoints;
  std::string scratch_dir;
  Checker checker;
  SpanRecorder* spans = nullptr;  // non-null only in the traced pass

  const Graph& graph() const { return data.graph; }
};

void Supervise(Run& run, FairGenTrainer& trainer) {
  if (run.data.num_classes > 0) {
    run.checker.Call(trainer.SetSupervision(run.labels, run.data.protected_set,
                                            run.data.num_classes),
                     "SetSupervision");
  }
}

/// Seed of release `j` of request `k`'s model; j = 0 is the request's own.
uint64_t GenerationSeed(const Run& run, int k, int j) {
  return Mix(run.seed, 2000 + 100 * static_cast<uint64_t>(j) +
                           static_cast<uint64_t>(k));
}

/// One release with its discrepancies, and what the checks found.
struct Release {
  fairgen::Result<Graph> graph = Graph::Empty(0);
  std::array<double, fairgen::kNumGraphMetrics> overall{};
  std::array<double, fairgen::kNumGraphMetrics> prot{};
  double generate_s = 0.0;
  uint64_t rss_after_generate = 0;
  bool ok = false;
  double r = 0.0;
  double r_plus = 0.0;
  uint64_t digest = 0;
  double volume_ratio = 0.0;
  double fallback_ratio = 0.0;
};

/// Generate + eval. Returns false when a library call failed.
bool GenerateAndEvaluate(Run& run, FairGenTrainer& trainer, Rng& rng,
                         SpanRecorder* spans, int request_id, Release& rel) {
  Checker& checker = run.checker;
  const Clock::time_point t = Clock::now();
  {
    ScopedSpan span(spans, "core.trainer.generate", request_id);
    rel.graph = trainer.Generate(rng);
  }
  rel.generate_s = SecondsSince(t);
  rel.rss_after_generate = fairgen::memprobe::CurrentRssBytes();
  if (!checker.Call(rel.graph.status(), "Generate")) return false;
  {
    ScopedSpan span(spans, "stats.overall", request_id);
    auto r = fairgen::OverallDiscrepancy(run.graph(), *rel.graph);
    if (!checker.Call(r.status(), "OverallDiscrepancy")) return false;
    rel.overall = *r;
  }
  if (run.data.protected_set.empty()) {
    // No protected group: R+ is R, and nobody would compute it again.
    rel.prot = rel.overall;
    return true;
  }
  ScopedSpan span(spans, "stats.protected", request_id);
  auto r = fairgen::ProtectedDiscrepancy(run.graph(), *rel.graph,
                                         run.data.protected_set);
  if (!checker.Call(r.status(), "ProtectedDiscrepancy")) return false;
  rel.prot = *r;
  return true;
}

/// Output checks on a release of `trainer`, outside any timed window.
void CheckRelease(Run& run, const std::string& tag,
                  const FairGenTrainer& trainer, Release& rel) {
  Checker& checker = run.checker;
  const Graph& original = run.graph();
  const Graph& g = *rel.graph;
  bool ok = checker.Check(g.num_nodes() == original.num_nodes(),
                          tag + "release keeps the node count");
  ok &= checker.Check(g.num_edges() == original.num_edges(),
                      tag + "release has m edges");
  bool covered = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) covered &= g.Degree(v) >= 1;
  ok &= checker.Check(covered, tag + "every node has degree >= 1");
  rel.r = fairgen::MeanDiscrepancy(rel.overall);
  rel.r_plus = fairgen::MeanDiscrepancy(rel.prot);
  ok &= checker.Check(std::isfinite(rel.r) && std::isfinite(rel.r_plus),
                      tag + "R and R+ are finite");
  const fairgen::AssemblyReport& report = trainer.last_assembly_report();
  const std::vector<NodeId>& prot = run.data.protected_set;
  // Without S+ the ratio is over the whole vertex set: 2m / 2m.
  rel.volume_ratio = 1.0;
  if (!prot.empty()) {
    const uint64_t vol_orig = original.Volume(prot);
    const uint64_t vol_rel = g.Volume(prot);
    ok &= checker.Check(report.protected_volume_target == vol_orig &&
                            report.protected_volume_achieved == vol_rel &&
                            report.assembled_edges == g.num_edges(),
                        tag + "assembly report matches the release");
    rel.volume_ratio = static_cast<double>(vol_rel) /
                       static_cast<double>(std::max<uint64_t>(1, vol_orig));
  }
  rel.fallback_ratio =
      static_cast<double>(report.fallback_edges) /
      static_cast<double>(std::max<uint64_t>(1, report.assembled_edges));
  rel.digest = EdgeDigest(g);
  rel.ok = ok;
}

struct RequestResult {
  bool ok = false;
  double total_s = 0.0;
  double fit_s = 0.0;
  uint64_t rss_after_fit = 0;
  Release release;
  std::unique_ptr<FairGenTrainer> trainer;
};

/// Runs request `k` (one release) and checks its output. `request_id`
/// tags its spans when `traced`.
RequestResult RunRequest(Run& run, int k, const FairGenConfig& config,
                         bool traced, int request_id) {
  SpanRecorder* spans = traced ? run.spans : nullptr;
  Checker& checker = run.checker;
  const size_t model = static_cast<size_t>(k % kSetupReps);
  RequestResult res;
  Rng fit_rng(Mix(run.seed, 1000 + static_cast<uint64_t>(k)));
  Rng gen_rng(GenerationSeed(run, k, 0));
  bool calls_ok = true;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan request_span(spans, "request", request_id);
    res.trainer = std::make_unique<FairGenTrainer>(config);
    Supervise(run, *res.trainer);
    if (run.workload->flow == Flow::kFitRelease) {
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(spans, "core.trainer.fit", request_id);
        calls_ok = checker.Call(res.trainer->Fit(run.graph(), fit_rng), "Fit");
      }
      res.fit_s = SecondsSince(t);
      res.rss_after_fit = fairgen::memprobe::CurrentRssBytes();
    } else {
      {
        ScopedSpan span(spans, "core.trainer.prepare", request_id);
        calls_ok =
            checker.Call(res.trainer->Prepare(run.graph(), fit_rng), "Prepare");
      }
      ScopedSpan span(spans, "core.checkpoint.load", request_id);
      calls_ok &= checker.Call(res.trainer->LoadCheckpoint(run.checkpoints[model]),
                               "LoadCheckpoint");
    }
    calls_ok = calls_ok && GenerateAndEvaluate(run, *res.trainer, gen_rng,
                                               spans, request_id, res.release);
  }
  res.total_s = SecondsSince(start);
  if (!calls_ok) return res;

  const std::string tag = "request " + std::to_string(k) + ": ";
  CheckRelease(run, tag, *res.trainer, res.release);
  res.ok = res.release.ok;
  if (run.workload->flow == Flow::kReleaseMany) {
    res.ok &= checker.Check(SameParameters(*res.trainer, *run.models[model]),
                            tag + "loaded parameters equal the fitted model's");
  }
  return res;
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> load_s;
  std::vector<double> fit_s;  // kReleaseMany only
  uint64_t rss_after_fit = 0;
};

/// A tiny-budget fit and release: it touches tensors and tables of the
/// workload's shapes, so code, allocator pools and pages are warm before
/// anything is timed.
void WarmUp(Run& run) {
  FairGenConfig cfg = run.config;
  cfg.num_walks = 16;
  cfg.self_paced_cycles = 1;
  cfg.generator_epochs = 1;
  cfg.gen_transition_multiplier = 0.1;
  FairGenTrainer trainer(cfg);
  Supervise(run, trainer);
  Rng rng(Mix(run.seed, 7));
  run.checker.Call(trainer.Fit(run.graph(), rng), "warm-up Fit");
  run.checker.Call(trainer.Generate(rng).status(), "warm-up Generate");
}

/// One setup repetition: synthesize the graph and pick the few-shot
/// labels, start the pool, warm up, and on kReleaseMany fit and checkpoint
/// model `rep`.
void SetupOnce(Run& run, int rep, SetupTimes& times) {
  const Clock::time_point start = Clock::now();
  ScopedSpan setup_span(run.spans, "setup", -1);
  {
    const Clock::time_point t = Clock::now();
    ScopedSpan span(run.spans, "data.load", -1);
    auto data = LoadGraph(*run.workload, run.smoke);
    if (!run.checker.Call(data.status(), "input synthesis")) return;
    run.data = std::move(*data);
    Rng rng(Mix(run.seed, 0));
    run.labels = fairgen::FewShotLabels(run.data, kLabelsPerClass, rng);
    times.load_s.push_back(SecondsSince(t));
  }
  {
    ScopedSpan span(run.spans, "parallel.pool_start", -1);
    fairgen::SetDefaultNumThreads(run.workload->threads);
    fairgen::ParallelFor(size_t{0}, size_t{64}, size_t{1}, [](size_t) {},
                         run.workload->threads);
  }
  {
    ScopedSpan span(run.spans, "warmup", -1);
    WarmUp(run);
  }
  if (run.workload->flow == Flow::kReleaseMany) {
    auto trainer = std::make_unique<FairGenTrainer>(run.config);
    Supervise(run, *trainer);
    Rng rng(Mix(run.seed, 3000 + static_cast<uint64_t>(rep)));
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan span(run.spans, "core.trainer.fit", -1);
      run.checker.Call(trainer->Fit(run.graph(), rng), "setup Fit");
    }
    times.fit_s.push_back(SecondsSince(t));
    times.rss_after_fit = std::max(times.rss_after_fit,
                                   fairgen::memprobe::CurrentRssBytes());
    const std::string path =
        run.scratch_dir + "/model" + std::to_string(rep) + ".fgckpt";
    {
      ScopedSpan span(run.spans, "core.checkpoint.save", -1);
      run.checker.Call(trainer->SaveCheckpoint(path), "SaveCheckpoint");
    }
    run.models.push_back(std::move(trainer));
    run.checkpoints.push_back(path);
  }
  times.total_s.push_back(SecondsSince(start));
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Sample count and quartiles for timings (n == 0 otherwise).
  size_t n = 0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Median with quartiles; 0 when no request succeeded (the run then
/// reports failures).
Metric TimingMetric(const std::string& name, const std::vector<double>& s) {
  if (s.empty()) return {name, 0.0, "s"};
  Quartiles q = ComputeQuartiles(s);
  return {name, q.median, "s", s.size(), q.q1, q.q3};
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(fairgen::StrTrim(
            std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

std::string FingerprintJson(const Run& run) {
  // Asked only inside a git checkout, so git never searches the parent
  // directories of a plain source tree.
  const std::string git_rev = std::filesystem::exists(".git")
                                  ? fairgen::telemetry::GitRevision()
                                  : "unknown";
  std::string out = "{";
  out += "\"cpu_model\": \"" + fairgen::JsonEscape(CpuModel()) + "\", ";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"kernel_backend\": \"";
  out += fairgen::nn::kernels::BackendName(
      fairgen::nn::kernels::ActiveBackend());
  out += "\", \"threads\": " + std::to_string(run.workload->threads);
  out += ", \"seed\": " + std::to_string(run.seed);
  out += ", \"git_rev\": \"" + fairgen::JsonEscape(git_rev);
  out += "\", \"build_type\": \"" FAIRGEN_BENCH_BUILD_TYPE "\"";
  out += ", \"smoke\": ";
  out += run.smoke ? "true" : "false";
  out += "}";
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (detail && m.n > 0) {
      out += ", \"n\": " + std::to_string(m.n) + ", \"q1\": " + Num(m.q1) +
             ", \"q3\": " + Num(m.q3);
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %-8s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.n > 0) {
      std::printf(" (median of %zu, IQR %.4g)", m.n, m.q3 - m.q1);
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// The request loop
// ---------------------------------------------------------------------------

/// What the request loop measured. With --trace 0 the timings come from
/// every request; with --trace 1 from the traced ones.
struct LoopResult {
  std::vector<double> fit, generate;
  std::vector<double> untraced_total, traced_total;
  /// R and R+ of every distinct release.
  std::vector<double> r, r_plus;
  std::map<int, uint64_t> digests;
  /// One round of layer probes after each traced request, so the probes
  /// share the requests' machine conditions.
  std::vector<LayerProbes> probe_rounds;
  double fallback_ratio = 0.0;
  double volume_ratio = 0.0;
  uint64_t rss_after_fit = 0;
  uint64_t rss_after_generate = 0;
};

ProbeInput MakeProbeInput(const Run& run, const FairGenTrainer& trained) {
  ProbeInput in;
  in.graph = &run.graph();
  in.labels = &run.labels;
  in.num_classes = run.data.num_classes;
  in.protected_set = &run.data.protected_set;
  in.config = run.config;
  in.trained = &trained;
  in.scratch_dir = run.scratch_dir;
  in.seed = run.seed;
  return in;
}

/// The further releases of request `k`'s model (kExtraReleases): each is
/// checked, its Generate time joins generate_s, and its R and R+ join the
/// run's means.
void MintMoreReleases(Run& run, int k, FairGenTrainer& trainer,
                      LoopResult& out) {
  for (int j = 1; j <= kExtraReleases; ++j) {
    Rng rng(GenerationSeed(run, k, j));
    Release rel;
    if (!GenerateAndEvaluate(run, trainer, rng, nullptr, -1, rel)) continue;
    CheckRelease(run,
                 "request " + std::to_string(k) + " release " +
                     std::to_string(j) + ": ",
                 trainer, rel);
    if (!rel.ok) continue;
    out.generate.push_back(rel.generate_s);
    out.r.push_back(rel.r);
    out.r_plus.push_back(rel.r_plus);
  }
}

/// Closed loop, one request at a time, for `seconds` and at least
/// distinct + 1 requests (so at least one digest is replayed). The traced
/// pass runs every request twice, untraced then traced, so the tracing
/// overhead compares identical work; it needs only two such pairs.
LoopResult RunLoop(Run& run, bool trace, double seconds) {
  const int distinct = run.workload->distinct;
  const bool more_releases = !trace && run.workload->flow == Flow::kFitRelease;
  LoopResult out;
  const int min_requests = trace ? 4 : distinct + 1;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_requests || SecondsSince(start) < seconds; ++i) {
    const bool traced = trace && i % 2 == 1;
    const int k = (trace ? i / 2 : i) % distinct;
    RequestResult res = RunRequest(run, k, run.config, traced, i);
    const Release& rel = res.release;
    std::fprintf(stderr,
                 "request %d (distinct %d): %.3f s, fit %.3f s, generate %.3f s, "
                 "R %.4f, R+ %.4f\n",
                 i, k, res.total_s, res.fit_s, rel.generate_s, rel.r,
                 rel.r_plus);
    if (!res.ok) continue;
    auto [it, first] = out.digests.emplace(k, rel.digest);
    if (first) {
      out.r.push_back(rel.r);
      out.r_plus.push_back(rel.r_plus);
      if (more_releases) MintMoreReleases(run, k, *res.trainer, out);
    } else {
      run.checker.Check(it->second == rel.digest,
                        "request " + std::to_string(k) +
                            " replay releases the same graph");
    }
    (traced ? out.traced_total : out.untraced_total).push_back(res.total_s);
    if (traced == trace) {
      out.fit.push_back(res.fit_s);
      out.generate.push_back(rel.generate_s);
    }
    if (traced) {
      out.rss_after_fit = std::max(out.rss_after_fit, res.rss_after_fit);
      out.rss_after_generate =
          std::max(out.rss_after_generate, rel.rss_after_generate);
      out.fallback_ratio = rel.fallback_ratio;
      out.volume_ratio = rel.volume_ratio;
      LayerProbes round =
          RunLayerProbes(MakeProbeInput(run, *res.trainer), run.spans);
      run.checker.attempted += round.calls;
      run.checker.failed += round.failed;
      out.probe_rounds.push_back(round);
    }
  }

  const uint32_t check_threads = run.workload->check_threads;
  if (check_threads > 0) {
    FairGenConfig cfg = run.config;
    cfg.num_threads = check_threads;
    fairgen::SetDefaultNumThreads(check_threads);
    RequestResult res = RunRequest(run, 0, cfg, false, -1);
    run.checker.Check(
        res.ok && out.digests.count(0) && out.digests[0] == res.release.digest,
        "release is byte-identical at " + std::to_string(check_threads) +
            " threads");
    fairgen::SetDefaultNumThreads(run.workload->threads);
  }
  run.checker.Check(trace ? !out.traced_total.empty()
                          : out.digests.size() == static_cast<size_t>(distinct),
                    "every request of the run completed");
  return out;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const Run& run, const SetupTimes& setup,
                                    const LoopResult& loop) {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const bool release_many = run.workload->flow == Flow::kReleaseMany;
  return {
      TimingMetric("setup_s", setup.total_s),
      TimingMetric("fit_s", release_many ? setup.fit_s : loop.fit),
      TimingMetric("generate_s", loop.generate),
      TimingMetric("end_to_end_s", loop.untraced_total),
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"r_mean", Mean(loop.r), "ratio"},
      {"r_plus_mean", Mean(loop.r_plus), "ratio"},
  };
}

/// Per-layer metrics of the traced pass. Appends the accounting behind
/// them (stage self times, fit-prediction terms) to `extra` as JSON
/// fields of the result file.
std::vector<Metric> LayerMetrics(Run& run, SpanRecorder& recorder,
                                 const SetupTimes& setup,
                                 const LoopResult& loop, std::string* extra) {
  // Stage self times per traced request; with the request's own self time
  // (its unattributed remainder) they sum to the request's duration, so
  // their means over the traced requests sum to the traced end_to_end.
  recorder.ComputeSelfTimes();
  std::map<std::string, double> stage_self;
  std::vector<double> unattributed;
  for (const Span& s : recorder.spans()) {
    if (s.request < 0) continue;
    stage_self[s.name] += s.self_s;
    if (s.parent >= 0) continue;
    double sum = 0.0;
    for (const Span& c : recorder.spans()) {
      if (c.request == s.request) sum += c.self_s;
    }
    run.checker.Check(std::abs(sum - s.duration_s()) <= 1e-9,
                      "traced request " + std::to_string(s.request) +
                          ": self times sum to its duration");
    unattributed.push_back(s.self_s);
  }
  for (auto& [name, seconds] : stage_self) {
    seconds /= static_cast<double>(loop.traced_total.size());
  }

  const LayerProbes p = MedianOfRounds(loop.probe_rounds);
  const FitCounts counts = CountFitWork(run.config, run.data.num_classes > 0);
  const std::vector<FitTerm> terms = PredictFit(p, counts);
  double predicted = 0.0;
  for (const FitTerm& t : terms) predicted += t.seconds();
  const bool release_many = run.workload->flow == Flow::kReleaseMany;
  const double fit_ref = Median(release_many ? setup.fit_s : loop.fit);
  const double decode_tokens = run.config.gen_transition_multiplier *
                               static_cast<double>(run.graph().num_edges());
  const double untraced = Mean(loop.untraced_total);

  *extra += ",\n  \"traced_end_to_end_s\": " + Num(Mean(loop.traced_total));
  *extra += ",\n  \"untraced_end_to_end_s\": " + Num(untraced);
  *extra += ",\n  \"stage_self_s\": {";
  for (auto it = stage_self.begin(); it != stage_self.end(); ++it) {
    *extra += std::string(it == stage_self.begin() ? "" : ", ") + "\"" +
              it->first + "\": " + Num(it->second);
  }
  *extra += "},\n  \"probe_rounds\": " + std::to_string(loop.probe_rounds.size());
  *extra += ",\n  \"fit_reference_s\": " + Num(fit_ref);
  *extra += ",\n  \"fit_prediction\": [";
  for (size_t i = 0; i < terms.size(); ++i) {
    *extra += std::string(i ? ", " : "") + "{\"term\": \"" + terms[i].name +
              "\", \"unit_s\": " + Num(terms[i].unit_s) +
              ", \"count\": " + std::to_string(terms[i].count) +
              ", \"seconds\": " + Num(terms[i].seconds()) + "}";
  }
  *extra += "]";

  return {
      {"data.load_s", Median(setup.load_s), "s"},
      {"core.trainer.prepare_s", p.prepare_s, "s"},
      {"core.trainer.fit.predicted_s", predicted, "s"},
      {"core.trainer.fit.unattributed_s", fit_ref - predicted, "s"},
      {"nn.train_walk_fwd_us", p.walk_fwd_us, "us"},
      {"nn.train_walk_bwd_us", p.walk_bwd_us, "us"},
      {"nn.adam_step_us", p.adam_step_us, "us"},
      {"nn.train_walks", static_cast<double>(counts.train_walks), "count"},
      {"nn.adam_steps", static_cast<double>(counts.adam_steps), "count"},
      {"nn.kernels.logits_matmul_gflops", p.logits_matmul_gflops, "GFLOP/s"},
      {"nn.kernels.softmax_nll_fwd_us", p.softmax_nll_fwd_us, "us"},
      {"nn.decode_token_us", p.decode_token_us, "us"},
      {"nn.decode_tokens", std::floor(decode_tokens), "count"},
      {"walk.context_walks_per_s", p.context_walks_per_s, "walks/s"},
      {"walk.node2vec_walks_per_s", p.node2vec_walks_per_s, "walks/s"},
      {"core.fair.disc_step_ms", p.disc_step_ms, "ms"},
      {"core.fair.logproba_all_ms", p.logproba_all_ms, "ms"},
      {"core.self_paced.update_ms", p.self_paced_update_ms, "ms"},
      {"core.checkpoint.save_s", p.checkpoint_save_s, "s"},
      {"core.checkpoint.load_s", p.checkpoint_load_s, "s"},
      {"core.checkpoint.bytes", static_cast<double>(p.checkpoint_bytes),
       "bytes"},
      {"generators.score_edges_s", p.score_edges_s, "s"},
      {"generators.distinct_edge_ratio", p.distinct_edge_ratio, "ratio"},
      {"core.assembler.assemble_s", p.assemble_s, "s"},
      {"core.assembler.fallback_ratio", loop.fallback_ratio, "ratio"},
      {"core.assembler.protected_volume_ratio", loop.volume_ratio, "ratio"},
      {"core.trainer.generate.unattributed_s",
       Median(loop.generate) - p.score_edges_s - p.assemble_s, "s"},
      {"stats.overall_s", stage_self["stats.overall"], "s"},
      {"stats.protected_s", stage_self["stats.protected"], "s"},
      {"mem.rss_after_fit_mb",
       MegaBytes(std::max(setup.rss_after_fit, loop.rss_after_fit)), "MB"},
      {"mem.rss_after_generate_mb", MegaBytes(loop.rss_after_generate), "MB"},
      {"trace.unattributed_s", Mean(unattributed), "s"},
      {"trace.overhead_pct",
       100.0 * (Mean(loop.traced_total) - untraced) / untraced, "%"},
  };
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "fairgen_benchmark: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: fairgen_benchmark --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace <0|1>] [--smoke]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      f.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      f.workload = value;
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace") {
      auto parsed =
          fairgen::ParseUint(value, arg == "--trace" ? 1 : UINT32_MAX);
      if (!parsed.ok()) Usage("bad " + arg + ": " + value);
      if (arg == "--seed") f.seed = *parsed;
      if (arg == "--seconds") f.seconds = static_cast<double>(*parsed);
      if (arg == "--trace") f.trace = *parsed == 1;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (f.workload.empty()) Usage("--workload is required");
  return f;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  fairgen::SetLogLevel(fairgen::LogLevel::kWarning);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload " + flags.workload);

  Run run;
  run.workload = workload;
  run.smoke = flags.smoke;
  run.seed = flags.seed;
  run.config = ModelConfig(*workload, flags.smoke);
  const std::string stem = std::string(".bench_build/results/") +
                           workload->name + "-seed" +
                           std::to_string(flags.seed);
  run.scratch_dir = stem + (flags.trace ? ".traced.tmp" : ".tmp");
  std::error_code ec;
  std::filesystem::create_directories(run.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run.scratch_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  SpanRecorder recorder;
  if (flags.trace) run.spans = &recorder;

  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) SetupOnce(run, rep, setup);
  if (setup.total_s.size() != static_cast<size_t>(kSetupReps)) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  const LoopResult loop = RunLoop(run, flags.trace, flags.seconds);

  std::vector<Metric> metrics;
  std::string extra;  // additional JSON fields of the result file
  if (!flags.trace) {
    metrics = EndToEndMetrics(run, setup, loop);
  } else if (!loop.probe_rounds.empty()) {
    metrics = LayerMetrics(run, recorder, setup, loop, &extra);
    const std::string trace_path = stem + ".chrome-trace.json";
    run.checker.Check(recorder.WriteChromeTrace(trace_path),
                      "write " + trace_path);
  }

  // Human-readable report, then the result file, then the result line.
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& [k, d] : loop.digests) {
    digest = (digest ^ d) * 0x100000001b3ULL;
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const std::string fingerprint = FingerprintJson(run);
  std::printf("workload %s  seed %llu  trace %d  requests %zu\n",
              workload->name, static_cast<unsigned long long>(flags.seed),
              flags.trace ? 1 : 0,
              loop.untraced_total.size() + loop.traced_total.size());
  std::printf("graph n=%u m=%llu classes=%u |S+|=%zu\n",
              run.graph().num_nodes(),
              static_cast<unsigned long long>(run.graph().num_edges()),
              run.data.num_classes, run.data.protected_set.size());
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("release digest %s\n", digest_hex);
  PrintMetrics(metrics);
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(run.checker.attempted),
              static_cast<unsigned long long>(run.checker.failed));

  const std::string result_path =
      stem + (flags.trace ? ".layers.json" : ".json");
  std::ofstream out(result_path);
  out << "{\n  \"workload\": \"" << workload->name << "\",\n  \"trace\": "
      << (flags.trace ? 1 : 0) << ",\n  \"fingerprint\": " << fingerprint
      << ",\n  \"release_digest\": \"" << digest_hex
      << "\",\n  \"attempted\": " << run.checker.attempted
      << ",\n  \"failed\": " << run.checker.failed
      << ",\n  \"metrics\": " << MetricsJson(metrics, true) << extra
      << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", result_path.c_str());
  }
  std::filesystem::remove_all(run.scratch_dir, ec);

  const bool correct = run.checker.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.checker.attempted),
      static_cast<unsigned long long>(run.checker.failed),
      MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fairgen_bench

int main(int argc, char** argv) { return fairgen_bench::Main(argc, argv); }
