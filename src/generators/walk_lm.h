#ifndef FAIRGEN_GENERATORS_WALK_LM_H_
#define FAIRGEN_GENERATORS_WALK_LM_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "generators/generator.h"
#include "nn/optimizer.h"
#include "rng/sampling.h"
#include "walk/random_walk.h"

namespace fairgen {

/// \brief Shared training/generation budget for the walk language-model
/// generators (NetGAN, TagGen, and FairGen's M1).
struct WalkLMTrainConfig {
  uint32_t walk_length = 10;  ///< T (paper: 10)
  uint32_t num_walks = 400;   ///< K training walks sampled from the graph
  uint32_t epochs = 4;        ///< passes over the walk corpus
  uint32_t batch_size = 16;   ///< walks per optimizer step
  float lr = 3e-3f;
  float grad_clip = 5.0f;
  /// Number of generated transitions, as a multiple of m, fed into the
  /// score matrix B ("we generate a much larger number of random walks
  /// than the sampled ones", Sec. II-D).
  double gen_transition_multiplier = 8.0;
  /// Softmax temperature at generation time.
  float temperature = 1.0f;
  /// Worker threads for generation-time walk sampling. 1 = sequential,
  /// 0 = the process-wide default (common/parallel.h). Results are
  /// bit-identical for every setting; this only trades wall-clock.
  uint32_t num_threads = 1;
};

/// \brief Mean NLL of `model` over a set of walks — the empirical
/// R(θ) / R_{S+}(θ) estimator of Eqs. 1–2 used by the disparity probe.
template <typename LM>
double MeanWalkNll(const LM& model, const std::vector<Walk>& walks) {
  if (walks.empty()) return 0.0;
  double total = 0.0;
  for (const Walk& w : walks) {
    total += static_cast<double>(model.WalkNll(w)->value.ScalarValue());
  }
  return total / static_cast<double>(walks.size());
}

/// \brief Teacher-forced language-model generator over uniform random
/// walks, parameterized by the sequence model (LstmLM → NetGAN,
/// TransformerLM → TagGen).
///
/// `LM` must provide: a constructor from (config, Rng&) handled by the
/// subclass, `WalkNll`, `SampleWalk`, and `Parameters`.
template <typename LM>
class WalkLMGenerator : public GraphGenerator {
 public:
  explicit WalkLMGenerator(WalkLMTrainConfig config)
      : config_(config) {}

  Status Fit(const Graph& graph, Rng& rng) override {
    if (graph.num_nodes() < 2 || graph.num_edges() == 0) {
      return Status::InvalidArgument(name() +
                                     " requires a non-empty graph");
    }
    fitted_graph_ = graph;
    fitted_ = true;
    model_ = BuildModel(graph, rng);

    RandomWalker walker(graph);
    std::vector<Walk> corpus =
        walker.SampleUniformWalks(config_.num_walks, config_.walk_length,
                                  rng, config_.num_threads);
    TrainOnWalks(corpus, rng);

    // Degree-proportional start distribution for generation.
    start_table_ = std::make_unique<StartDistribution>(
        graph, StartDistribution::Kind::kDegreeProportional);
    return Status::OK();
  }

  Result<Graph> Generate(Rng& rng) override {
    if (!fitted_) {
      return Status::FailedPrecondition(
          "Fit must be called before Generate");
    }
    return AccumulateWalks(rng).BuildTopEdges(fitted_graph_.num_edges());
  }

  Result<std::vector<std::pair<Edge, double>>> ScoreEdges(
      Rng& rng) override {
    if (!fitted_) {
      return Status::FailedPrecondition(
          "Fit must be called before ScoreEdges");
    }
    return AccumulateWalks(rng).ScoredEdges();
  }

  /// Continues training on additional walks (used by tests and by the
  /// disparity probe, which trains in increments and measures NLL between
  /// checkpoints).
  void TrainOnWalks(const std::vector<Walk>& corpus, Rng& rng) {
    FAIRGEN_CHECK(model_ != nullptr);
    nn::Adam optim(model_->Parameters(), config_.lr);
    std::vector<uint32_t> order(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
      Shuffle(order, rng);
      optim.ZeroGrad();
      uint32_t in_batch = 0;
      for (uint32_t idx : order) {
        if (corpus[idx].size() < 2) continue;
        nn::Var loss = model_->WalkNll(corpus[idx]);
        nn::Backward(loss);
        last_loss_ = loss->value.ScalarValue();
        if (++in_batch == config_.batch_size) {
          ScaleGrads(1.0f / static_cast<float>(in_batch));
          optim.ClipGradNorm(config_.grad_clip);
          optim.Step();
          optim.ZeroGrad();
          in_batch = 0;
        }
      }
      if (in_batch > 0) {
        ScaleGrads(1.0f / static_cast<float>(in_batch));
        optim.ClipGradNorm(config_.grad_clip);
        optim.Step();
      }
    }
  }

  /// The trained sequence model (null before Fit).
  const LM* model() const { return model_.get(); }
  LM* mutable_model() { return model_.get(); }

  /// NLL of the last processed training walk (diagnostics).
  double last_loss() const { return last_loss_; }

  const WalkLMTrainConfig& config() const { return config_; }
  const Graph& fitted_graph() const { return fitted_graph_; }
  bool fitted() const { return fitted_; }

 protected:
  /// Constructs the sequence model for a graph with n nodes.
  virtual std::unique_ptr<LM> BuildModel(const Graph& graph, Rng& rng) = 0;

  /// The walk sampler of one AccumulateWalks budget chunk, built on the
  /// worker that runs the chunk. This one draws each walk with
  /// `model_->SampleWalk` from a degree-proportional start; a model whose
  /// per-walk setup is costly overrides it to keep that state for the
  /// whole chunk (TagGen's KV decoder), drawing the same walks.
  virtual WalkSampler NewChunkSampler() const {
    return [this](Rng& worker_rng) {
      uint32_t start = start_table_->Sample(worker_rng);
      return model_->SampleWalk(start, config_.walk_length, worker_rng,
                                config_.temperature);
    };
  }

  /// Samples walks from the trained model into a score accumulator
  /// (the B matrix of Sec. II-D) on the shared deterministic parallel
  /// runtime: `config_.num_threads` only changes wall-clock, never the
  /// result (model forward passes are read-only and thread-safe).
  EdgeScoreAccumulator AccumulateWalks(Rng& rng) const {
    const uint64_t target_transitions = static_cast<uint64_t>(
        config_.gen_transition_multiplier *
        static_cast<double>(fitted_graph_.num_edges()));
    return AccumulateWalkScores(
        fitted_graph_.num_nodes(), target_transitions, config_.num_threads,
        rng, [this] { return NewChunkSampler(); });
  }

  void ScaleGrads(float factor) {
    for (const nn::Var& p : model_->Parameters()) {
      p->grad.Scale(factor);
    }
  }

  WalkLMTrainConfig config_;
  Graph fitted_graph_{Graph::Empty(0)};
  bool fitted_ = false;
  std::unique_ptr<LM> model_;
  std::unique_ptr<StartDistribution> start_table_;
  double last_loss_ = 0.0;
};

}  // namespace fairgen

#endif  // FAIRGEN_GENERATORS_WALK_LM_H_
