#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/events.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "generators/walk_lm.h"
#include "nn/serialize.h"
#include "graph/subgraph.h"
#include "nn/data_parallel.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "stats/discrepancy.h"
#include "walk/node2vec_walk.h"
#include "walk/random_walk.h"

namespace fairgen {

namespace {

// Guard for the per-cycle loss means: one NaN/Inf batch would otherwise
// poison the recorded loss history — and through it the training curves,
// self-paced diagnostics, and every checkpoint — silently. A non-finite
// batch value is skipped from the mean, counted in
// `trainer.nonfinite_batches` (which the watchdog's `loss_non_finite`
// rule watches), and logged on first occurrence. Returns whether `value`
// was accumulated.
bool GuardFiniteLoss(double value, const char* component, double* sum) {
  if (std::isfinite(value)) {
    *sum += value;
    return true;
  }
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "trainer.nonfinite_batches");
  if (counter.value() == 0) {
    FAIRGEN_LOG(WARNING) << "non-finite " << component
                         << " loss batch skipped (value " << value << ")";
  }
  counter.Increment();
  return false;
}

// Gradient shards per generator minibatch (nn/data_parallel.h). The
// shard count fixes the order in which the per-walk gradients are
// summed, so it is part of the training trajectory; the thread count is
// not. Two shards match the benchmark's two threads. Each shard builds
// one stacked tape per batch; each shard after the first costs one model
// replica and a gradient fold per batch.
constexpr uint32_t kGeneratorGradShards = 2;

}  // namespace

FairGenTrainer::FairGenTrainer(FairGenConfig config)
    : config_(std::move(config)) {}

Status FairGenTrainer::SetSupervision(std::vector<int32_t> labels,
                                      std::vector<NodeId> protected_set,
                                      uint32_t num_classes) {
  int32_t max_label = -1;
  bool any = false;
  for (int32_t y : labels) {
    if (y == kUnlabeled) continue;
    if (y < 0) {
      return Status::InvalidArgument("negative label: " + std::to_string(y));
    }
    max_label = std::max(max_label, y);
    any = true;
  }
  if (num_classes == 0) {
    num_classes = static_cast<uint32_t>(max_label + 1);
  } else if (max_label >= static_cast<int32_t>(num_classes)) {
    return Status::InvalidArgument("label exceeds num_classes");
  }
  if (any && num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  ground_truth_ = std::move(labels);
  protected_set_ = std::move(protected_set);
  num_classes_ = num_classes;
  has_labels_ = any;
  return Status::OK();
}

std::vector<Walk> FairGenTrainer::SampleGeneratorWalks(size_t count,
                                                       Rng& rng) const {
  FAIRGEN_CHECK(model_ != nullptr && start_table_ != nullptr);
  std::vector<Walk> walks;
  walks.reserve(count);
  nn::TransformerDecoder decoder(model_->generator());
  for (size_t i = 0; i < count; ++i) {
    uint32_t start = start_table_->Sample(rng);
    walks.push_back(decoder.SampleWalk(start, config_.walk_length, rng,
                                       config_.temperature));
  }
  return walks;
}

double FairGenTrainer::TrainGenerator(Rng& rng) {
  trace::ScopedSpan span("trainer.train_generator",
                         trace::Category::kTrain);
  const float floor_logprob =
      -config_.negative_floor_scale *
      std::log(static_cast<float>(fitted_graph_.num_nodes()));
  // The optimizer persists across cycles (created in Prepare) so its
  // Adam moments are part of the resumable training state.
  nn::Adam& optim = *gen_optim_;
  // Shard s > 0 trains on a replica of the generator that lives only
  // while the generator trains, so it never adds to the memory of the
  // other stages or of a fitted model. Replica values are overwritten
  // from the master before every batch, so their initialization draws
  // from a local stream, never `rng`.
  Rng init_rng(0);
  std::vector<std::unique_ptr<nn::TransformerLM>> replicas;
  std::vector<std::vector<nn::Var>> replica_params;
  for (uint32_t s = 1; s < kGeneratorGradShards; ++s) {
    replicas.push_back(std::make_unique<nn::TransformerLM>(
        model_->generator().config(), init_rng));
    replica_params.push_back(replicas.back()->Parameters());
  }
  nn::DataParallelGrads grads(optim.params(), std::move(replica_params));
  // Each shard back-propagates its slice of a batch as one stacked tape;
  // its [R, V] loss buffers persist across batches.
  std::array<nn::WalkLossWorkspace, kGeneratorGradShards> workspaces;

  double loss_sum = 0.0;
  uint64_t loss_count = 0;
  std::vector<nn::TrainingWalk> items;
  std::vector<double> batch_losses;
  for (uint32_t epoch = 0; epoch < config_.generator_epochs; ++epoch) {
    // Walks too short to score take no place in a batch.
    items.clear();
    for (const auto& [is_positive, idx] : dataset_.EpochOrder(rng)) {
      const Walk& walk = is_positive ? dataset_.positives()[idx]
                                     : dataset_.negatives()[idx];
      if (walk.size() >= 2) items.push_back({&walk, !is_positive});
    }
    for (size_t begin = 0; begin < items.size();
         begin += config_.generator_batch) {
      const size_t size = std::min<size_t>(config_.generator_batch,
                                           items.size() - begin);
      batch_losses.assign(size, 0.0);
      grads.Accumulate(
          size, config_.num_threads, [&](size_t shard, size_t lo, size_t hi) {
            const nn::TransformerLM& lm =
                shard == 0 ? model_->generator() : *replicas[shard - 1];
            std::vector<float> walk_losses;
            nn::Backward(lm.WalkBatchLoss(
                std::span(items).subspan(begin + lo, hi - lo), floor_logprob,
                &walk_losses, &workspaces[shard]));
            std::copy(walk_losses.begin(), walk_losses.end(),
                      batch_losses.begin() + lo);
          });
      for (double value : batch_losses) {
        if (inject_nan_batches_ > 0) {
          // Fault injection (FAIRGEN_INJECT_NAN_LOSS): poison the
          // *recorded* walk value only — gradients are untouched, so the
          // training trajectory stays deterministic while the guard path
          // below is exercised end to end.
          value = std::numeric_limits<double>::quiet_NaN();
          --inject_nan_batches_;
        }
        if (GuardFiniteLoss(value, "generator", &loss_sum)) ++loss_count;
      }
      for (const nn::Var& p : optim.params()) {
        p->grad.Scale(1.0f / static_cast<float>(size));
      }
      optim.ClipGradNorm(config_.grad_clip);
      optim.Step();
    }
  }
  return loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
}

void FairGenTrainer::TrainDiscriminator(FairGenLosses& losses, Rng& rng) {
  if (!has_supervision()) return;
  trace::ScopedSpan span("trainer.train_discriminator",
                         trace::Category::kTrain);

  // L = all currently labeled vertices (ground truth + pseudo labels).
  std::vector<uint32_t> gt_nodes;
  std::vector<uint32_t> pseudo_nodes;
  for (NodeId v = 0; v < labels_.size(); ++v) {
    if (ground_truth_[v] != kUnlabeled) {
      gt_nodes.push_back(v);
    } else if (labels_[v] != kUnlabeled) {
      pseudo_nodes.push_back(v);
    }
  }
  if (gt_nodes.empty()) return;

  FairLearningModule& fair = model_->fair_module();
  const bool use_parity = config_.variant != FairGenVariant::kNoParity &&
                          !protected_set_.empty() &&
                          protected_set_.size() < fitted_graph_.num_nodes();
  std::vector<NodeId> unprotected =
      ComplementSet(fitted_graph_.num_nodes(), protected_set_);

  nn::Adam& optim = *disc_optim_;

  double jp_sum = 0.0;
  double jf_sum = 0.0;
  double jl_sum = 0.0;
  uint64_t steps = 0;
  for (uint32_t t = 0; t < config_.batch_iterations; ++t) {
    optim.ZeroGrad();

    // Sample N1 labeled vertices from L (Algorithm 1, step 10), keeping
    // ground-truth and pseudo-labeled nodes separate so that J_P and J_L
    // can be weighted independently.
    auto sample_nodes = [&](const std::vector<uint32_t>& pool,
                            uint32_t count) {
      std::vector<uint32_t> picked;
      if (pool.empty() || count == 0) return picked;
      std::vector<uint32_t> idx = SampleWithoutReplacement(
          static_cast<uint32_t>(pool.size()),
          std::min<uint32_t>(count, static_cast<uint32_t>(pool.size())),
          rng);
      picked.reserve(idx.size());
      for (uint32_t i : idx) picked.push_back(pool[i]);
      return picked;
    };

    std::vector<uint32_t> gt_batch =
        sample_nodes(gt_nodes, config_.batch_size);
    std::vector<uint32_t> gt_labels(gt_batch.size());
    for (size_t i = 0; i < gt_batch.size(); ++i) {
      gt_labels[i] = static_cast<uint32_t>(ground_truth_[gt_batch[i]]);
    }
    nn::Var loss = fair.PredictionLoss(gt_batch, gt_labels, config_.alpha);
    GuardFiniteLoss(loss->value.ScalarValue(), "prediction", &jp_sum);

    if (!pseudo_nodes.empty() &&
        config_.variant != FairGenVariant::kNoSelfPaced) {
      std::vector<uint32_t> ps_batch =
          sample_nodes(pseudo_nodes, config_.batch_size);
      std::vector<uint32_t> ps_labels(ps_batch.size());
      for (size_t i = 0; i < ps_batch.size(); ++i) {
        ps_labels[i] = static_cast<uint32_t>(labels_[ps_batch[i]]);
      }
      nn::Var jl = fair.PropagationLoss(ps_batch, ps_labels, config_.beta);
      GuardFiniteLoss(jl->value.ScalarValue(), "propagation", &jl_sum);
      loss = nn::Add(loss, jl);
    }

    if (use_parity) {
      uint32_t sample = config_.parity_sample;
      std::vector<uint32_t> prot = sample_nodes(
          std::vector<uint32_t>(protected_set_.begin(), protected_set_.end()),
          sample == 0 ? static_cast<uint32_t>(protected_set_.size())
                      : sample);
      std::vector<uint32_t> unprot = sample_nodes(
          std::vector<uint32_t>(unprotected.begin(), unprotected.end()),
          sample == 0 ? static_cast<uint32_t>(unprotected.size()) : sample);
      if (!prot.empty() && !unprot.empty()) {
        nn::Var jf = fair.ParityLoss(prot, unprot, config_.gamma);
        GuardFiniteLoss(jf->value.ScalarValue(), "parity", &jf_sum);
        loss = nn::Add(loss, jf);
      }
    }

    nn::Backward(loss);
    optim.ClipGradNorm(config_.grad_clip);
    optim.Step();
    ++steps;
  }
  if (steps > 0) {
    losses.j_p = jp_sum / static_cast<double>(steps);
    losses.j_f = jf_sum / static_cast<double>(steps);
    // j_l from minibatches is recorded here; the self-paced J_L/J_S values
    // over the full vertex set are filled by the caller after Eq. 14.
    if (losses.j_l == 0.0) {
      losses.j_l = jl_sum / static_cast<double>(steps);
    }
  }
}

Status FairGenTrainer::Prepare(const Graph& graph, Rng& rng) {
  FAIRGEN_RETURN_NOT_OK(config_.Validate());
  if (graph.num_nodes() < 2 || graph.num_edges() == 0) {
    return Status::InvalidArgument("FairGen requires a non-empty graph");
  }
  if (!ground_truth_.empty() &&
      ground_truth_.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "supervision labels were set for a different node count");
  }
  fitted_graph_ = graph;
  fitted_ = true;
  if (ground_truth_.empty()) {
    ground_truth_.assign(graph.num_nodes(), kUnlabeled);
  }
  for (NodeId v : protected_set_) {
    if (v >= graph.num_nodes()) {
      return Status::InvalidArgument("protected node out of range: " +
                                     std::to_string(v));
    }
  }

  const uint32_t model_classes = std::max<uint32_t>(2, num_classes_);
  model_ = std::make_unique<FairGenModel>(
      config_, graph.num_nodes(), model_classes,
      NodeMask(graph.num_nodes(), protected_set_), rng);

  // Step 1: initialize the self-paced vectors from the labeled vertices;
  // FairGen-R replaces f_S by uniform sampling (general_ratio = 1).
  ContextSamplerConfig sampler_cfg;
  sampler_cfg.walk_length = config_.walk_length;
  sampler_cfg.general_ratio = config_.variant == FairGenVariant::kRandom
                                  ? 1.0
                                  : config_.general_ratio;
  ContextSampler sampler(graph, sampler_cfg, model_classes);
  labels_ = ground_truth_;
  FAIRGEN_RETURN_NOT_OK(sampler.SetLabels(labels_));
  sampler_ = std::make_unique<ContextSampler>(std::move(sampler));

  start_table_ = std::make_unique<StartDistribution>(
      graph, StartDistribution::Kind::kDegreeProportional);

  gen_optim_ = std::make_unique<nn::Adam>(model_->GeneratorParameters(),
                                          config_.generator_lr);
  disc_optim_ = std::make_unique<nn::Adam>(model_->DiscriminatorParameters(),
                                           config_.discriminator_lr);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_ = PendingCheckpoint();
  }
  return Status::OK();
}

Status FairGenTrainer::Fit(const Graph& graph, Rng& rng) {
  trace::ScopedSpan span("trainer.fit", trace::Category::kTrain);
  FAIRGEN_RETURN_NOT_OK(Prepare(graph, rng));

  SelfPacedScheduler scheduler(config_.lambda, config_.lambda_growth);
  loss_history_.clear();
  num_pseudo_labeled_ = 0;

  const std::string& ckpt_dir = config_.checkpoint.dir;
  if (!ckpt_dir.empty()) {
    FAIRGEN_RETURN_NOT_OK(MakeDirectories(ckpt_dir));
  }
  uint32_t start_cycle = 0;
  bool resumed = false;
  if (config_.checkpoint.resume) {
    FAIRGEN_ASSIGN_OR_RETURN(
        resumed, TryResume(ckpt_dir, scheduler, rng, &start_cycle));
  }
  if (!resumed) {
    // Step 2: initial N+ from f_S and N− from the biased second-order
    // sampler [32]. A resumed run restores the walk pools from the
    // checkpoint instead (and the restored RNG state supersedes the
    // draws consumed here, so the resumed trajectory matches the
    // uninterrupted one bit for bit).
    dataset_ = WalkDataset();
    dataset_.AddPositives(sampler_->SampleBatch(config_.num_walks, rng));
    Node2VecWalker neg_walker(graph, config_.negative_walk);
    dataset_.AddNegatives(neg_walker.SampleWalks(
        config_.num_walks, config_.walk_length, rng, config_.num_threads));
  }

  // The per-cycle training curves (Figures 4–8 pipeline signals). All
  // metric calls are observation-only: they never touch `rng` or the
  // parallel chunk layout, so instrumented and uninstrumented runs are
  // bit-identical (pinned by the determinism suite).
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  metrics::Series& nll_series = registry.GetSeries("trainer.nll");
  metrics::Series& lambda_series =
      registry.GetSeries("trainer.self_paced_lambda");
  metrics::Series& parity_series =
      registry.GetSeries("trainer.parity_regularizer");
  metrics::Series& total_series = registry.GetSeries("trainer.total_loss");
  metrics::Counter& cycle_counter = registry.GetCounter("trainer.cycles");
  metrics::Counter& refresh_counter =
      registry.GetCounter("trainer.negative_refreshes");

  // Fault injection for the watchdog test suites:
  // FAIRGEN_INJECT_NAN_LOSS=<c> makes the first generator batch of cycle
  // c record a NaN loss value (gradients untouched — see TrainGenerator),
  // exercising the finiteness guard and the `loss_non_finite` alert end
  // to end without perturbing the trajectory. Read per Fit, not cached,
  // so tests in one process can toggle it.
  int64_t inject_nan_cycle = -1;
  if (const char* env = std::getenv("FAIRGEN_INJECT_NAN_LOSS")) {
    inject_nan_cycle = std::atoll(env);
  }

  // Steps 3–12: the self-paced cycles (resume skips the completed ones).
  for (uint32_t cycle = start_cycle; cycle < config_.self_paced_cycles;
       ++cycle) {
    trace::ScopedSpan cycle_span("trainer.cycle", trace::Category::kTrain);
    if (inject_nan_cycle >= 0 &&
        cycle == static_cast<uint64_t>(inject_nan_cycle)) {
      inject_nan_batches_ = 1;
    }
    FairGenLosses losses;

    // Steps 4–11, one after another. `rng` is split into one stream per
    // step, in step order: sample_walks, generator, negatives (when
    // refreshed), self_paced (with SPL), dataset_update, discriminator.
    // self_paced and dataset_update draw nothing, but their streams are
    // still split: the count 4 + refresh + spl fixes how far `rng`
    // advances per cycle, which keeps the trajectory and FGCKPT2 resume
    // unchanged.
    const bool refresh = config_.refresh_negatives;
    const bool spl = has_supervision() &&
                     config_.variant != FairGenVariant::kNoSelfPaced;
    std::vector<Rng> streams = SplitRngs(rng, 4 + refresh + spl);

    // Step 5: new positives with the current self-paced vectors, sampled
    // before this cycle's label update.
    std::vector<Walk> positives;
    {
      trace::ScopedSpan step_span("trainer.sample_walks",
                                  trace::Category::kWalk);
      positives = sampler_->SampleBatch(config_.num_walks, streams[0]);
    }
    // Step 4: update g_θ from N+ and N− (this cycle's walks join below).
    losses.j_g = TrainGenerator(streams[1]);
    // Step 6: new negatives from the updated generator (skipped by the
    // negative-refresh ablation, which keeps the static [32] negatives).
    std::vector<Walk> negatives;
    if (refresh) {
      trace::ScopedSpan step_span("trainer.negatives",
                                  trace::Category::kWalk);
      negatives = SampleGeneratorWalks(config_.num_walks, streams[2]);
    }
    // Steps 7–8: augment λ and refresh the self-paced vectors / pseudo
    // labels (skipped by the w/o-SPL ablation).
    if (spl) {
      trace::ScopedSpan step_span("trainer.self_paced",
                                  trace::Category::kTrain);
      scheduler.Augment();
      SelfPacedUpdate update =
          scheduler.Update(model_->fair_module().LogProbaAll(),
                           ground_truth_, config_.beta);
      labels_ = std::move(update.labels);
      num_pseudo_labeled_ = update.num_pseudo_labeled;
      losses.j_l = update.j_l / std::max<size_t>(1, labels_.size());
      losses.j_s = update.j_s / std::max<size_t>(1, labels_.size());
      FAIRGEN_RETURN_NOT_OK(sampler_->SetLabels(labels_));
    }
    // Steps 5–6 commit: fold the fresh pools into the dataset.
    dataset_.AddPositives(std::move(positives));
    if (refresh) {
      dataset_.AddNegatives(std::move(negatives));
      refresh_counter.Increment();
    }
    dataset_.TrimTo(4 * config_.num_walks);
    // Steps 9–11: discriminator updates (J_P + J_L + J_F).
    TrainDiscriminator(losses, streams.back());

    loss_history_.push_back(losses);

    const double step = static_cast<double>(cycle);
    nll_series.Append(step, losses.j_g);
    lambda_series.Append(step, scheduler.lambda());
    parity_series.Append(step, losses.j_f);
    total_series.Append(step, losses.total());
    cycle_counter.Increment();

    // Cycle boundary: capture the resumable state into the emergency
    // buffer every cycle, and persist it on the configured cadence plus
    // always after the final cycle (so a kill after training resumes
    // straight to generation). Checkpointing is observation + I/O only —
    // it never draws from `rng`.
    if (!ckpt_dir.empty()) {
      const uint32_t next_cycle = cycle + 1;
      UpdatePendingCheckpoint(ckpt_dir, next_cycle, scheduler.lambda(), rng);
      if (next_cycle % config_.checkpoint.every_cycles == 0 ||
          next_cycle == config_.self_paced_cycles) {
        FAIRGEN_RETURN_NOT_OK(WritePendingCheckpoint());
      }
    }

    // Periodic in-training fairness probe (--probe-every). Observation
    // only: the probe draws from its own cycle-keyed RNG stream and never
    // touches `rng`, so probed and unprobed runs stay bit-identical.
    if (config_.probe_every > 0 &&
        (cycle + 1) % config_.probe_every == 0) {
      RunFairnessProbe(cycle);
    }
  }
  registry.GetGauge("trainer.pseudo_labeled")
      .Set(static_cast<double>(num_pseudo_labeled_));
  return Status::OK();
}

EdgeScoreAccumulator FairGenTrainer::AccumulateWalks(Rng& rng) const {
  const uint64_t target_transitions = static_cast<uint64_t>(
      config_.gen_transition_multiplier *
      static_cast<double>(fitted_graph_.num_edges()));

  // Start nodes: with probability r degree-proportional (general
  // structure), otherwise uniformly from a labeled class's vertices so
  // that each group — including the scarce protected classes — seeds its
  // share of synthetic context.
  std::vector<std::vector<NodeId>> class_nodes;
  if (has_supervision()) {
    class_nodes.resize(num_classes_);
    for (NodeId v = 0; v < labels_.size(); ++v) {
      if (labels_[v] != kUnlabeled) {
        class_nodes[static_cast<size_t>(labels_[v])].push_back(v);
      }
    }
    class_nodes.erase(
        std::remove_if(class_nodes.begin(), class_nodes.end(),
                       [](const auto& c) { return c.empty(); }),
        class_nodes.end());
  }

  // Model forward passes are read-only and thread-safe, so the walk
  // sampling runs on the shared deterministic runtime (common/parallel.h),
  // with one decoder per budget chunk.
  return AccumulateWalkScores(
      fitted_graph_.num_nodes(), target_transitions, config_.num_threads,
      rng, [this, &class_nodes] {
        auto decoder =
            std::make_shared<nn::TransformerDecoder>(model_->generator());
        return WalkSampler([this, &class_nodes, decoder](Rng& worker_rng) {
          uint32_t start;
          if (!class_nodes.empty() &&
              !worker_rng.Bernoulli(config_.general_ratio)) {
            const auto& members = class_nodes[worker_rng.UniformU32(
                static_cast<uint32_t>(class_nodes.size()))];
            start = members[worker_rng.UniformU32(
                static_cast<uint32_t>(members.size()))];
          } else {
            start = start_table_->Sample(worker_rng);
          }
          return decoder->SampleWalk(start, config_.walk_length, worker_rng,
                                     config_.temperature);
        });
      });
}

void FairGenTrainer::RunFairnessProbe(uint32_t cycle) {
  trace::ScopedSpan span("trainer.fairness_probe", trace::Category::kEval);
  // Probe-local RNG keyed by the cycle: deterministic for a given cycle,
  // and strictly separate from the training stream (observation-only
  // contract — enabling the probe must not move a single training draw).
  Rng probe_rng(0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(cycle) + 1));

  // Disparity: the empirical R(θ) vs R_{S+}(θ) estimator of
  // eval/disparity_probe (Eqs. 1–2), applied to the *live* generator —
  // mean NLL over held-out uniform walks from anywhere vs walks started
  // inside the protected set.
  constexpr size_t kProbeWalks = 24;
  RandomWalker walker(fitted_graph_);
  const std::vector<Walk> overall = walker.SampleUniformWalks(
      kProbeWalks, config_.walk_length, probe_rng, /*num_threads=*/1);
  const double overall_nll = MeanWalkNll(model_->generator(), overall);
  double protected_nll = overall_nll;
  if (!protected_set_.empty()) {
    std::vector<Walk> prot;
    prot.reserve(kProbeWalks);
    for (size_t i = 0; i < kProbeWalks; ++i) {
      const NodeId start = protected_set_[probe_rng.UniformU32(
          static_cast<uint32_t>(protected_set_.size()))];
      prot.push_back(
          walker.UniformWalk(start, config_.walk_length, probe_rng));
    }
    protected_nll = MeanWalkNll(model_->generator(), prot);
  }
  const double gap = protected_nll - overall_nll;

  // Discrepancy: a small generation pass (1x the original edge count,
  // a fraction of the final generation budget) assembled under the
  // standard criteria, scored with the stats/discrepancy metric vector.
  double discrepancy_mean = 0.0;
  EdgeScoreAccumulator acc = AccumulateWalkScores(
      fitted_graph_.num_nodes(), fitted_graph_.num_edges(),
      config_.num_threads, probe_rng, [this] {
        auto decoder =
            std::make_shared<nn::TransformerDecoder>(model_->generator());
        return WalkSampler([this, decoder](Rng& worker_rng) {
          return decoder->SampleWalk(start_table_->Sample(worker_rng),
                                     config_.walk_length, worker_rng,
                                     config_.temperature);
        });
      });
  AssemblerCriteria criteria;
  criteria.preserve_protected_volume = !protected_set_.empty();
  criteria.ensure_min_degree = true;
  Result<Graph> generated = AssembleFairGraph(
      acc, fitted_graph_, protected_set_, criteria, probe_rng, nullptr);
  if (generated.ok()) {
    auto overall_disc = OverallDiscrepancy(fitted_graph_, *generated);
    if (overall_disc.ok()) {
      discrepancy_mean = MeanDiscrepancy(*overall_disc);
    }
  } else {
    FAIRGEN_LOG(WARNING) << "fairness probe assembly failed: "
                         << generated.status().ToString();
  }

  const double step = static_cast<double>(cycle);
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetSeries("probe.overall_nll").Append(step, overall_nll);
  registry.GetSeries("probe.protected_nll").Append(step, protected_nll);
  registry.GetSeries("probe.disparity_gap").Append(step, gap);
  registry.GetSeries("probe.discrepancy_mean").Append(step, discrepancy_mean);

  events::Event event;
  event.type = events::Type::kProbe;
  event.name = "fairness";
  event.epoch = step;
  event.fields = {{"overall_nll", overall_nll},
                  {"protected_nll", protected_nll},
                  {"disparity_gap", gap},
                  {"discrepancy_mean", discrepancy_mean}};
  events::Journal::Global().Emit(std::move(event));
}

namespace {

// The checkpointed parameter set: generator (includes the shared
// embedding table) plus the discriminator head.
std::vector<nn::Var> CheckpointParams(const FairGenModel& model) {
  std::vector<nn::Var> params = model.GeneratorParameters();
  for (const nn::Var& p : model.fair_module().HeadParameters()) {
    params.push_back(p);
  }
  return params;
}

// --- Section payload codecs -----------------------------------------------
// Every Parse* decodes into locals and rejects trailing bytes, so a
// corrupted section can never commit a partial value.

std::string SerializeParamsPayload(const std::vector<nn::Var>& params) {
  std::string out;
  nn::AppendU64(out, params.size());
  for (const nn::Var& p : params) {
    nn::AppendTensor(out, p->value);
  }
  return out;
}

Result<std::vector<nn::Tensor>> ParseParamsPayload(
    const std::string& payload, const std::vector<nn::Var>& like) {
  nn::ByteReader reader(payload);
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count != like.size()) {
    return Status::InvalidArgument(
        "checkpoint parameter count mismatch: file has " +
        std::to_string(count) + ", model has " +
        std::to_string(like.size()));
  }
  std::vector<nn::Tensor> tensors;
  tensors.reserve(like.size());
  for (const nn::Var& p : like) {
    FAIRGEN_ASSIGN_OR_RETURN(nn::Tensor t, reader.ReadTensor());
    if (!t.SameShape(p->value)) {
      return Status::InvalidArgument(
          "checkpoint shape mismatch: file [" + std::to_string(t.rows()) +
          "," + std::to_string(t.cols()) + "] vs model [" +
          std::to_string(p->value.rows()) + "," +
          std::to_string(p->value.cols()) + "]");
    }
    tensors.push_back(std::move(t));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "trailing bytes after the last parameter tensor");
  }
  return tensors;
}

std::string SerializeLabelsPayload(const std::vector<int32_t>& labels) {
  std::string out;
  nn::AppendU64(out, labels.size());
  for (int32_t y : labels) nn::AppendI32(out, y);
  return out;
}

// Labels are serialized natively as int32 (the old format round-tripped
// them through float32, where a corrupted NaN or huge value cast to a
// garbage int). Each entry must be kUnlabeled or a class id below
// `num_classes`.
Result<std::vector<int32_t>> ParseLabelsPayload(const std::string& payload,
                                                size_t expected,
                                                uint32_t num_classes) {
  nn::ByteReader reader(payload);
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count != expected) {
    return Status::InvalidArgument(
        "checkpoint label count mismatch: file has " +
        std::to_string(count) + ", graph has " + std::to_string(expected) +
        " nodes");
  }
  std::vector<int32_t> labels(expected);
  for (size_t v = 0; v < expected; ++v) {
    FAIRGEN_ASSIGN_OR_RETURN(labels[v], reader.ReadI32());
    if (labels[v] != kUnlabeled &&
        (labels[v] < 0 || labels[v] >= static_cast<int32_t>(num_classes))) {
      return Status::InvalidArgument(
          "checkpoint label out of range at node " + std::to_string(v) +
          ": " + std::to_string(labels[v]) + " (model has " +
          std::to_string(num_classes) + " classes)");
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the last label");
  }
  return labels;
}

std::string SerializeOptimizerPayload(const nn::OptimizerState& state) {
  std::string out;
  nn::AppendString(out, state.type);
  nn::AppendU64(out, state.step);
  nn::AppendU64(out, state.slots.size());
  for (const nn::Tensor& t : state.slots) nn::AppendTensor(out, t);
  return out;
}

Result<nn::OptimizerState> ParseOptimizerPayload(
    const std::string& payload) {
  nn::ByteReader reader(payload);
  nn::OptimizerState state;
  FAIRGEN_ASSIGN_OR_RETURN(state.type, reader.ReadString());
  FAIRGEN_ASSIGN_OR_RETURN(state.step, reader.ReadU64());
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t slots, reader.ReadU64());
  state.slots.reserve(static_cast<size_t>(slots));
  for (uint64_t i = 0; i < slots; ++i) {
    FAIRGEN_ASSIGN_OR_RETURN(nn::Tensor t, reader.ReadTensor());
    state.slots.push_back(std::move(t));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "trailing bytes after the optimizer slots");
  }
  return state;
}

void AppendWalks(std::string& out, const std::vector<Walk>& walks) {
  nn::AppendU64(out, walks.size());
  for (const Walk& walk : walks) {
    nn::AppendU32(out, static_cast<uint32_t>(walk.size()));
    for (NodeId v : walk) nn::AppendU32(out, v);
  }
}

Status ReadWalks(nn::ByteReader& reader, uint32_t num_nodes,
                 std::vector<Walk>* out) {
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    FAIRGEN_ASSIGN_OR_RETURN(uint32_t len, reader.ReadU32());
    Walk walk(len);
    for (uint32_t j = 0; j < len; ++j) {
      FAIRGEN_ASSIGN_OR_RETURN(walk[j], reader.ReadU32());
      if (walk[j] >= num_nodes) {
        return Status::InvalidArgument(
            "checkpoint walk references node " + std::to_string(walk[j]) +
            " outside the graph (" + std::to_string(num_nodes) + " nodes)");
      }
    }
    out->push_back(std::move(walk));
  }
  return Status::OK();
}

std::string SerializeRngPayload(const Rng& rng) {
  const RngState state = rng.Serialize();
  std::string out;
  nn::AppendU64(out, state.state);
  nn::AppendU64(out, state.inc);
  nn::AppendU8(out, state.has_cached_normal ? 1 : 0);
  nn::AppendF64(out, state.cached_normal);
  return out;
}

Result<RngState> ParseRngPayload(const std::string& payload) {
  nn::ByteReader reader(payload);
  RngState state;
  FAIRGEN_ASSIGN_OR_RETURN(state.state, reader.ReadU64());
  FAIRGEN_ASSIGN_OR_RETURN(state.inc, reader.ReadU64());
  FAIRGEN_ASSIGN_OR_RETURN(uint8_t cached, reader.ReadU8());
  state.has_cached_normal = cached != 0;
  FAIRGEN_ASSIGN_OR_RETURN(state.cached_normal, reader.ReadF64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the RNG state");
  }
  return state;
}

}  // namespace

struct FairGenTrainer::DecodedCheckpoint {
  uint32_t next_cycle = 0;
  uint32_t num_pseudo_labeled = 0;
  std::vector<nn::Tensor> params;
  std::vector<int32_t> labels;
  nn::OptimizerState gen_opt;
  nn::OptimizerState disc_opt;
  float lambda = 0.0f;
  std::vector<FairGenLosses> loss_history;
  RngState rng;
  std::vector<Walk> positives;
  std::vector<Walk> negatives;
};

std::string FairGenTrainer::Fingerprint() const {
  // Everything that shapes the training trajectory, so a resume against a
  // different config or graph fails loudly instead of producing silently
  // different (or garbage) results. num_threads and the checkpoint
  // options are deliberately absent: results are bit-identical across
  // thread counts, and checkpoint cadence is observation-only.
  std::ostringstream out;
  const FairGenConfig& c = config_;
  out << "walk_length=" << c.walk_length << ";num_walks=" << c.num_walks
      << ";batch_iterations=" << c.batch_iterations
      << ";batch_size=" << c.batch_size
      << ";self_paced_cycles=" << c.self_paced_cycles
      << ";general_ratio=" << c.general_ratio << ";alpha=" << c.alpha
      << ";beta=" << c.beta << ";gamma=" << c.gamma
      << ";lambda=" << c.lambda << ";lambda_growth=" << c.lambda_growth
      << ";embedding_dim=" << c.embedding_dim
      << ";num_heads=" << c.num_heads << ";num_layers=" << c.num_layers
      << ";ffn_dim=" << c.ffn_dim
      << ";generator_epochs=" << c.generator_epochs
      << ";generator_batch=" << c.generator_batch
      << ";generator_lr=" << c.generator_lr << ";grad_clip=" << c.grad_clip
      << ";negative_floor_scale=" << c.negative_floor_scale
      << ";negative_p=" << c.negative_walk.p
      << ";negative_q=" << c.negative_walk.q
      << ";refresh_negatives=" << (c.refresh_negatives ? 1 : 0)
      << ";discriminator_hidden=" << c.discriminator_hidden
      << ";discriminator_lr=" << c.discriminator_lr
      << ";parity_sample=" << c.parity_sample
      << ";gen_transition_multiplier=" << c.gen_transition_multiplier
      << ";temperature=" << c.temperature
      << ";variant=" << static_cast<int>(c.variant)
      << ";num_nodes=" << fitted_graph_.num_nodes()
      << ";num_edges=" << fitted_graph_.num_edges()
      << ";num_classes=" << num_classes_
      << ";num_protected=" << protected_set_.size();
  return out.str();
}

Status FairGenTrainer::SaveCheckpoint(const std::string& path) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition(
        "Prepare or Fit must run before SaveCheckpoint");
  }
  // The model-export checkpoint: parameters plus the label assignment
  // (ground truth + pseudo labels), which drives the class-informed
  // start distribution at generation time. The training-loop checkpoints
  // written by Fit extend this with the optimizer/RNG/walk-pool state.
  CheckpointWriter writer;
  writer.AddSection(ckpt::kSectionFingerprint, Fingerprint());
  writer.AddSection(ckpt::kSectionParams,
                    SerializeParamsPayload(CheckpointParams(*model_)));
  writer.AddSection(ckpt::kSectionLabels, SerializeLabelsPayload(labels_));
  return writer.WriteFile(path);
}

Status FairGenTrainer::LoadCheckpoint(const std::string& path) {
  if (model_ == nullptr) {
    return Status::FailedPrecondition(
        "Prepare must run before LoadCheckpoint");
  }
  FAIRGEN_ASSIGN_OR_RETURN(CheckpointReader reader,
                           CheckpointReader::ReadFile(path));
  FAIRGEN_ASSIGN_OR_RETURN(const std::string* fingerprint,
                           reader.Section(ckpt::kSectionFingerprint));
  if (*fingerprint != Fingerprint()) {
    return Status::InvalidArgument(
        "checkpoint fingerprint mismatch: the file was saved with a "
        "different config or graph (file: " +
        *fingerprint + "; this run: " + Fingerprint() + ")");
  }
  const std::vector<nn::Var> params = CheckpointParams(*model_);
  FAIRGEN_ASSIGN_OR_RETURN(const std::string* params_payload,
                           reader.Section(ckpt::kSectionParams));
  FAIRGEN_ASSIGN_OR_RETURN(std::vector<nn::Tensor> tensors,
                           ParseParamsPayload(*params_payload, params));
  FAIRGEN_ASSIGN_OR_RETURN(const std::string* labels_payload,
                           reader.Section(ckpt::kSectionLabels));
  const uint32_t model_classes = std::max<uint32_t>(2, num_classes_);
  FAIRGEN_ASSIGN_OR_RETURN(
      std::vector<int32_t> labels,
      ParseLabelsPayload(*labels_payload, fitted_graph_.num_nodes(),
                         model_classes));
  // All sections decoded and validated — commit.
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(tensors[i]);
  }
  FAIRGEN_RETURN_NOT_OK(sampler_->SetLabels(labels));
  labels_ = std::move(labels);
  return Status::OK();
}

std::string FairGenTrainer::SerializeTrainingCheckpoint(
    uint32_t next_cycle, float lambda, const Rng& rng) const {
  CheckpointWriter writer;
  std::string meta;
  nn::AppendU32(meta, next_cycle);
  nn::AppendU32(meta, num_pseudo_labeled_);
  writer.AddSection(ckpt::kSectionMeta, std::move(meta));
  writer.AddSection(ckpt::kSectionFingerprint, Fingerprint());
  writer.AddSection(ckpt::kSectionParams,
                    SerializeParamsPayload(CheckpointParams(*model_)));
  writer.AddSection(ckpt::kSectionLabels, SerializeLabelsPayload(labels_));
  writer.AddSection(ckpt::kSectionGeneratorOpt,
                    SerializeOptimizerPayload(gen_optim_->SaveState()));
  writer.AddSection(ckpt::kSectionDiscriminatorOpt,
                    SerializeOptimizerPayload(disc_optim_->SaveState()));
  std::string self_paced;
  nn::AppendF32(self_paced, lambda);
  writer.AddSection(ckpt::kSectionSelfPaced, std::move(self_paced));
  std::string history;
  nn::AppendU64(history, loss_history_.size());
  for (const FairGenLosses& l : loss_history_) {
    nn::AppendF64(history, l.j_g);
    nn::AppendF64(history, l.j_p);
    nn::AppendF64(history, l.j_f);
    nn::AppendF64(history, l.j_l);
    nn::AppendF64(history, l.j_s);
  }
  writer.AddSection(ckpt::kSectionLossHistory, std::move(history));
  writer.AddSection(ckpt::kSectionRng, SerializeRngPayload(rng));
  std::string dataset;
  AppendWalks(dataset, dataset_.positives());
  AppendWalks(dataset, dataset_.negatives());
  writer.AddSection(ckpt::kSectionDataset, std::move(dataset));
  return writer.Serialize();
}

Status FairGenTrainer::DecodeTrainingCheckpoint(
    const CheckpointReader& reader, DecodedCheckpoint* out) const {
  FAIRGEN_ASSIGN_OR_RETURN(const std::string* fingerprint,
                           reader.Section(ckpt::kSectionFingerprint));
  if (*fingerprint != Fingerprint()) {
    return Status::InvalidArgument(
        "checkpoint fingerprint mismatch: the file was saved with a "
        "different config or graph (file: " +
        *fingerprint + "; this run: " + Fingerprint() + ")");
  }

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* meta,
                           reader.Section(ckpt::kSectionMeta));
  {
    nn::ByteReader meta_reader(*meta);
    FAIRGEN_ASSIGN_OR_RETURN(out->next_cycle, meta_reader.ReadU32());
    FAIRGEN_ASSIGN_OR_RETURN(out->num_pseudo_labeled,
                             meta_reader.ReadU32());
    if (!meta_reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes in the meta section");
    }
  }
  if (out->next_cycle > config_.self_paced_cycles) {
    return Status::InvalidArgument(
        "checkpoint cycle " + std::to_string(out->next_cycle) +
        " exceeds self_paced_cycles " +
        std::to_string(config_.self_paced_cycles));
  }

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* params_payload,
                           reader.Section(ckpt::kSectionParams));
  FAIRGEN_ASSIGN_OR_RETURN(
      out->params,
      ParseParamsPayload(*params_payload, CheckpointParams(*model_)));

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* labels_payload,
                           reader.Section(ckpt::kSectionLabels));
  const uint32_t model_classes = std::max<uint32_t>(2, num_classes_);
  FAIRGEN_ASSIGN_OR_RETURN(
      out->labels,
      ParseLabelsPayload(*labels_payload, fitted_graph_.num_nodes(),
                         model_classes));

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* gen_opt,
                           reader.Section(ckpt::kSectionGeneratorOpt));
  FAIRGEN_ASSIGN_OR_RETURN(out->gen_opt, ParseOptimizerPayload(*gen_opt));
  FAIRGEN_ASSIGN_OR_RETURN(const std::string* disc_opt,
                           reader.Section(ckpt::kSectionDiscriminatorOpt));
  FAIRGEN_ASSIGN_OR_RETURN(out->disc_opt, ParseOptimizerPayload(*disc_opt));

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* self_paced,
                           reader.Section(ckpt::kSectionSelfPaced));
  {
    nn::ByteReader sp_reader(*self_paced);
    FAIRGEN_ASSIGN_OR_RETURN(out->lambda, sp_reader.ReadF32());
    if (!sp_reader.AtEnd()) {
      return Status::InvalidArgument(
          "trailing bytes in the self-paced section");
    }
  }

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* history,
                           reader.Section(ckpt::kSectionLossHistory));
  {
    nn::ByteReader h_reader(*history);
    FAIRGEN_ASSIGN_OR_RETURN(uint64_t count, h_reader.ReadU64());
    out->loss_history.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      FairGenLosses l;
      FAIRGEN_ASSIGN_OR_RETURN(l.j_g, h_reader.ReadF64());
      FAIRGEN_ASSIGN_OR_RETURN(l.j_p, h_reader.ReadF64());
      FAIRGEN_ASSIGN_OR_RETURN(l.j_f, h_reader.ReadF64());
      FAIRGEN_ASSIGN_OR_RETURN(l.j_l, h_reader.ReadF64());
      FAIRGEN_ASSIGN_OR_RETURN(l.j_s, h_reader.ReadF64());
      out->loss_history.push_back(l);
    }
    if (!h_reader.AtEnd()) {
      return Status::InvalidArgument(
          "trailing bytes in the loss-history section");
    }
  }

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* rng_payload,
                           reader.Section(ckpt::kSectionRng));
  FAIRGEN_ASSIGN_OR_RETURN(out->rng, ParseRngPayload(*rng_payload));

  FAIRGEN_ASSIGN_OR_RETURN(const std::string* dataset,
                           reader.Section(ckpt::kSectionDataset));
  {
    nn::ByteReader d_reader(*dataset);
    FAIRGEN_RETURN_NOT_OK(
        ReadWalks(d_reader, fitted_graph_.num_nodes(), &out->positives));
    FAIRGEN_RETURN_NOT_OK(
        ReadWalks(d_reader, fitted_graph_.num_nodes(), &out->negatives));
    if (!d_reader.AtEnd()) {
      return Status::InvalidArgument(
          "trailing bytes in the dataset section");
    }
  }
  return Status::OK();
}

Status FairGenTrainer::CommitCheckpoint(DecodedCheckpoint decoded,
                                        SelfPacedScheduler& scheduler,
                                        Rng& rng, uint32_t* next_cycle) {
  // Scheduler and sampler can still reject (non-finite λ, bad label
  // layout) — run those first so a failure leaves the trainer untouched.
  FAIRGEN_RETURN_NOT_OK(scheduler.Restore(decoded.lambda));
  FAIRGEN_RETURN_NOT_OK(sampler_->SetLabels(decoded.labels));
  const std::vector<nn::Var> params = CheckpointParams(*model_);
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(decoded.params[i]);
  }
  FAIRGEN_RETURN_NOT_OK(gen_optim_->LoadState(decoded.gen_opt));
  FAIRGEN_RETURN_NOT_OK(disc_optim_->LoadState(decoded.disc_opt));
  labels_ = std::move(decoded.labels);
  num_pseudo_labeled_ = decoded.num_pseudo_labeled;
  loss_history_ = std::move(decoded.loss_history);
  rng.Deserialize(decoded.rng);
  dataset_ = WalkDataset();
  dataset_.AddPositives(std::move(decoded.positives));
  dataset_.AddNegatives(std::move(decoded.negatives));
  *next_cycle = decoded.next_cycle;
  return Status::OK();
}

Result<bool> FairGenTrainer::TryResume(const std::string& dir,
                                       SelfPacedScheduler& scheduler,
                                       Rng& rng, uint32_t* next_cycle) {
  const std::vector<CheckpointFile> files = ListCheckpoints(dir);
  if (files.empty()) {
    FAIRGEN_LOG(INFO) << "no checkpoint in '" << dir
                      << "', starting fresh";
    return false;
  }
  std::string last_error;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto reader = CheckpointReader::ReadFile(it->path);
    Status status = reader.ok() ? Status::OK() : reader.status();
    if (status.ok()) {
      DecodedCheckpoint decoded;
      status = DecodeTrainingCheckpoint(*reader, &decoded);
      if (status.ok()) {
        status = CommitCheckpoint(std::move(decoded), scheduler, rng,
                                  next_cycle);
      }
    }
    if (status.ok()) {
      FAIRGEN_LOG(INFO) << "resumed from " << it->path << " at cycle "
                        << *next_cycle << "/" << config_.self_paced_cycles;
      return true;
    }
    FAIRGEN_LOG(WARNING) << "skipping unusable checkpoint " << it->path
                         << ": " << status.message();
    last_error = status.message();
  }
  return Status::InvalidArgument(
      "no usable checkpoint in '" + dir + "' (" +
      std::to_string(files.size()) +
      " present, all rejected; last error: " + last_error + ")");
}

void FairGenTrainer::UpdatePendingCheckpoint(const std::string& dir,
                                             uint32_t next_cycle,
                                             float lambda, const Rng& rng) {
  PendingCheckpoint next;
  next.path = dir + "/" + CheckpointFileName(next_cycle);
  next.tmp_path = next.path + ".tmp";
  next.blob = SerializeTrainingCheckpoint(next_cycle, lambda, rng);
  next.cycle = next_cycle;
  std::lock_guard<std::mutex> lock(pending_mu_);
  std::swap(pending_, next);
}

Status FairGenTrainer::WritePendingCheckpoint() {
  std::string path;
  size_t bytes = 0;
  uint32_t cycle = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.path.empty()) return Status::OK();
    FAIRGEN_RETURN_NOT_OK(WriteFileAtomic(pending_.path, pending_.blob));
    path = pending_.path;
    bytes = pending_.blob.size();
    cycle = pending_.cycle;
  }
  RotateCheckpoints(config_.checkpoint.dir, config_.checkpoint.retain);
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetCounter("checkpoint.writes").Increment();
  registry.GetCounter("checkpoint.bytes").Increment(bytes);
  registry.GetGauge("checkpoint.last_epoch").Set(static_cast<double>(cycle));
  events::Event event;
  event.type = events::Type::kCheckpoint;
  event.name = "write";
  event.message = path;
  event.epoch = static_cast<double>(cycle);
  event.fields = {{"bytes", static_cast<double>(bytes)}};
  events::Journal::Global().Emit(std::move(event));
  return Status::OK();
}

void FairGenTrainer::WriteEmergencyCheckpoint(bool wait_for_lock) {
  std::unique_lock<std::mutex> lock(pending_mu_, std::defer_lock);
  if (wait_for_lock) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return;
  }
  if (pending_.path.empty()) return;
  // Best-effort: called on the signal path, where there is nobody left
  // to consume a result, and possibly over a thread interrupted inside
  // malloc — hence the allocation-free write. The atomic write contract
  // still holds, so a failure here leaves the previous file intact.
  WriteFileAtomicSignalSafe(pending_.path.c_str(), pending_.tmp_path.c_str(),
                            pending_.blob.data(), pending_.blob.size());
}

Result<Graph> FairGenTrainer::Generate(Rng& rng) {
  AssemblerCriteria criteria;
  criteria.preserve_protected_volume = !protected_set_.empty();
  criteria.ensure_min_degree = true;
  return GenerateWithCriteria(criteria, rng);
}

Result<Graph> FairGenTrainer::GenerateWithCriteria(
    const AssemblerCriteria& criteria, Rng& rng) {
  if (!fitted_) {
    return Status::FailedPrecondition("Fit must be called before Generate");
  }
  trace::ScopedSpan span("trainer.generate", trace::Category::kGenerate);
  EdgeScoreAccumulator acc = AccumulateWalks(rng);
  return AssembleFairGraph(acc, fitted_graph_, protected_set_, criteria, rng,
                           &assembly_report_);
}

Result<std::vector<std::pair<Edge, double>>> FairGenTrainer::ScoreEdges(
    Rng& rng) {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "Fit must be called before ScoreEdges");
  }
  return AccumulateWalks(rng).ScoredEdges();
}

}  // namespace fairgen
