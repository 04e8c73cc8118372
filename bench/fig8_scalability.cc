// Figure 8: scalability of FairGen on synthetic ER graphs.
//
// (a) runtime vs number of nodes at fixed edge density 0.005;
// (b) runtime vs edge density at fixed n. The paper's claim is near-linear
// growth in both; we report the full train+generate wall clock plus the
// per-unit cost so linearity is visible in the table itself.
// (c) runtime vs worker threads at fixed (n, density) — the scaling of the
// shared parallel runtime (common/parallel.h). Results are bit-identical
// at every thread count, so the sweep measures wall clock only. The sweep
// is also written as BENCH_fig8.json for machine consumption.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/trainer.h"
#include "generators/er.h"

namespace {

using namespace fairgen;
using namespace fairgen::bench;

double RunOnce(uint32_t num_nodes, double density, const ZooConfig& zoo,
               uint64_t seed, uint32_t num_threads = 0) {
  uint64_t max_edges = static_cast<uint64_t>(num_nodes) * (num_nodes - 1) / 2;
  uint64_t edges = static_cast<uint64_t>(density * max_edges);
  Rng rng(seed);
  auto graph = SampleErdosRenyi(num_nodes, edges, rng);
  graph.status().CheckOK();

  FairGenConfig cfg = zoo.fairgen;
  if (num_threads != 0) cfg.num_threads = num_threads;
  FairGenTrainer trainer(cfg);
  Timer timer;
  trainer.Fit(*graph, rng).CheckOK();
  auto generated = trainer.Generate(rng);
  generated.status().CheckOK();
  return timer.ElapsedSeconds();
}

struct SweepPoint {
  uint32_t threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
};

// Hand-rolled JSON (no third-party deps in this repo).
void WriteSweepJson(const std::string& path, uint32_t num_nodes,
                    double density, uint32_t pool_parallelism,
                    const std::vector<SweepPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig8_thread_sweep\",\n"
               "  \"nodes\": %u,\n"
               "  \"density\": %g,\n"
               "  \"pool_max_parallelism\": %u,\n"
               "  \"points\": [\n",
               num_nodes, density, pool_parallelism);
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %u, \"seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 points[i].threads, points[i].seconds, points[i].speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(thread sweep written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(
      argc, argv, "Fig. 8 — FairGen runtime vs graph size and density");
  ZooConfig zoo = MakeZooConfig(options);

  // (a) growing node count at fixed density (paper: 500..5000, 0.005).
  std::vector<uint32_t> node_counts =
      options.full ? std::vector<uint32_t>{500, 1000, 2000, 3000, 4000, 5000}
                   : std::vector<uint32_t>{300, 600, 900, 1200};
  Table by_nodes({"nodes", "density", "seconds", "us_per_node"});
  for (uint32_t n : node_counts) {
    double secs = RunOnce(n, 0.005, zoo, options.run.seed);
    by_nodes.AddRow({std::to_string(n), "0.005", FormatDouble(secs, 3),
                     FormatDouble(1e6 * secs / n, 1)});
  }
  EmitTable(by_nodes, options, "Fig. 8(a) — runtime vs number of nodes");

  // (b) growing density at fixed node count (paper: n=5000, 0.005..0.05).
  uint32_t fixed_n = options.full ? 5000 : 800;
  std::vector<double> densities =
      options.full
          ? std::vector<double>{0.005, 0.01, 0.02, 0.03, 0.04, 0.05}
          : std::vector<double>{0.005, 0.01, 0.02, 0.04};
  Table by_density({"nodes", "density", "edges", "seconds",
                    "us_per_edge"});
  for (double d : densities) {
    uint64_t max_edges =
        static_cast<uint64_t>(fixed_n) * (fixed_n - 1) / 2;
    uint64_t edges = static_cast<uint64_t>(d * max_edges);
    double secs = RunOnce(fixed_n, d, zoo, options.run.seed);
    by_density.AddRow({std::to_string(fixed_n), FormatDouble(d, 3),
                       std::to_string(edges), FormatDouble(secs, 3),
                       FormatDouble(1e6 * secs / edges, 2)});
  }
  EmitTable(by_density, options, "Fig. 8(b) — runtime vs edge density");

  // (c) thread-count sweep at fixed (n, density). Each point runs the same
  // seeded train+generate pipeline, so any two rows differ only in wall
  // clock — never in output (the determinism suite pins this).
  uint32_t sweep_n = options.full ? 2000 : 600;
  uint32_t pool_max = ThreadPool::Global().max_parallelism();
  Table by_threads({"threads", "seconds", "speedup", "efficiency"});
  std::vector<SweepPoint> sweep;
  double serial_secs = 0.0;
  for (uint32_t t : {1u, 2u, 4u, 8u}) {
    double secs = RunOnce(sweep_n, 0.005, zoo, options.run.seed, t);
    if (t == 1) serial_secs = secs;
    SweepPoint point;
    point.threads = t;
    point.seconds = secs;
    point.speedup = secs > 0.0 ? serial_secs / secs : 1.0;
    sweep.push_back(point);
    by_threads.AddRow({std::to_string(t), FormatDouble(secs, 3),
                       FormatDouble(point.speedup, 2),
                       FormatDouble(point.speedup / t, 2)});
  }
  EmitTable(by_threads, options,
            "Fig. 8(c) — runtime vs worker threads (identical outputs)");
  WriteSweepJson("BENCH_fig8.json", sweep_n, 0.005, pool_max, sweep);
  return FinishRun(0);
}
