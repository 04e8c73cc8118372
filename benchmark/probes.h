#ifndef FAIRGEN_BENCHMARK_PROBES_H_
#define FAIRGEN_BENCHMARK_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "graph/graph.h"
#include "timing.h"

namespace fairgen_bench {

/// What the layer probes run against: the workload's graph and supervision
/// and a model the benchmark trained (or restored) on them.
struct ProbeInput {
  const fairgen::Graph* graph = nullptr;
  /// Few-shot ground truth given to the trainer (all kUnlabeled when the
  /// workload is unlabeled).
  const std::vector<int32_t>* labels = nullptr;
  uint32_t num_classes = 0;
  /// S+ as given to the trainer; empty on unlabeled workloads.
  const std::vector<fairgen::NodeId>* protected_set = nullptr;
  fairgen::FairGenConfig config;
  const fairgen::FairGenTrainer* trained = nullptr;
  /// Directory the checkpoint probe may write into.
  std::string scratch_dir;
  uint64_t seed = 0;
};

/// Per-call cost of each layer at the workload's shapes. Every timing is
/// the median over several batches of calls.
struct LayerProbes {
  double prepare_s = 0.0;
  double walk_fwd_us = 0.0;  ///< one training walk forward, N+/N− alternating
  double walk_bwd_us = 0.0;  ///< nn::Backward of that walk, tape release included
  double adam_step_us = 0.0;  ///< grad scale + clip + Adam step + zero
  double logits_matmul_gflops = 0.0;  ///< [T−1,D]×[D,n] tied projection
  double softmax_nll_fwd_us = 0.0;    ///< fused softmax+NLL over [T−1,n]
  double decode_token_us = 0.0;       ///< SampleWalk, per decoded token
  double context_walks_per_s = 0.0;
  double node2vec_walks_per_s = 0.0;
  double disc_step_ms = 0.0;
  double logproba_all_ms = 0.0;
  double self_paced_update_ms = 0.0;
  double checkpoint_save_s = 0.0;
  double checkpoint_load_s = 0.0;
  uint64_t checkpoint_bytes = 0;
  double score_edges_s = 0.0;  ///< AccumulateWalkScores at generate's budget
  double distinct_edge_ratio = 0.0;
  double assemble_s = 0.0;
  /// Library calls the probes made, and how many returned an error.
  uint64_t calls = 0;
  uint64_t failed = 0;
};

/// One round of every probe; recorded as spans when `spans` is non-null.
LayerProbes RunLayerProbes(const ProbeInput& in, SpanRecorder* spans);

/// Field-wise median of several rounds (non-empty); calls and failures
/// are summed.
LayerProbes MedianOfRounds(const std::vector<LayerProbes>& rounds);

/// \brief The work one FairGenTrainer::Fit performs, counted from its
/// configuration (Algorithm 1 as implemented in core/trainer.cc).
///
/// Each cycle trains the generator for `generator_epochs` passes over the
/// N+ and N− pools. Both pools start at K walks and grow by K per cycle up
/// to 4K, so cycle c holds K·min(c+1, 4) walks in each.
struct FitCounts {
  uint64_t train_walks = 0;     ///< generator forward+backward passes
  uint64_t adam_steps = 0;      ///< generator optimizer steps
  uint64_t context_walks = 0;   ///< f_S samples (initial pool + each cycle)
  uint64_t node2vec_walks = 0;  ///< initial N− pool
  uint64_t negative_tokens = 0;  ///< decoded by the per-cycle N− refresh
  uint64_t disc_steps = 0;
  uint64_t logproba_calls = 0;
  uint64_t self_paced_updates = 0;
};

FitCounts CountFitWork(const fairgen::FairGenConfig& config, bool supervised);

/// One prediction term: probe cost × count.
struct FitTerm {
  std::string name;
  double unit_s = 0.0;
  uint64_t count = 0;
  double seconds() const { return unit_s * static_cast<double>(count); }
};

/// The terms of the fit-time prediction; their sum is
/// `core.trainer.fit.predicted_s`.
std::vector<FitTerm> PredictFit(const LayerProbes& probes,
                                const FitCounts& counts);

}  // namespace fairgen_bench

#endif  // FAIRGEN_BENCHMARK_PROBES_H_
