#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>

#include "core/fairgen_model.h"
#include "core/self_paced.h"
#include "generators/generator.h"
#include "graph/subgraph.h"
#include "graph/transition.h"
#include "nn/kernels/kernels.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "walk/context_sampler.h"
#include "walk/node2vec_walk.h"

namespace fairgen_bench {

namespace {

using fairgen::FairGenConfig;
using fairgen::NodeId;
using fairgen::Rng;
using fairgen::Walk;

constexpr int kBatches = 5;

/// Median over kBatches batches of the mean seconds per call of `fn`.
template <typename Fn>
double MedianPerCall(int calls_per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls_per_batch; ++i) fn(i);
    per_call.push_back(SecondsSince(start) / calls_per_batch);
  }
  return Median(per_call);
}

class ProbeRunner {
 public:
  ProbeRunner(const ProbeInput& in, SpanRecorder* spans)
      : in_(in), spans_(spans), rng_(in.seed ^ 0x70726f6265ULL) {}

  LayerProbes Run() {
    Probe("probe.core.trainer.prepare", [&] { Prepare(); });
    Probe("probe.nn.train_walk", [&] { TrainWalk(); });
    Probe("probe.nn.kernels", [&] { Kernels(); });
    Probe("probe.nn.decode", [&] { Decode(); });
    Probe("probe.walk", [&] { Walks(); });
    Probe("probe.core.fair", [&] { FairLearning(); });
    Probe("probe.core.checkpoint", [&] { Checkpoint(); });
    Probe("probe.generators.score_edges", [&] { ScoreEdges(); });
    return out_;
  }

 private:
  template <typename Fn>
  void Probe(const char* name, Fn&& fn) {
    ScopedSpan span(spans_, name, -1);
    fn();
  }

  bool Ok(const fairgen::Status& status) {
    ++out_.calls;
    if (status.ok()) return true;
    ++out_.failed;
    std::fprintf(stderr, "probe call failed: %s\n",
                 status.ToString().c_str());
    return false;
  }

  const FairGenConfig& config() const { return in_.config; }
  uint32_t model_classes() const {
    return std::max<uint32_t>(2, in_.num_classes);
  }

  void Supervise(fairgen::FairGenTrainer& trainer) {
    if (in_.num_classes > 0) {
      Ok(trainer.SetSupervision(*in_.labels, *in_.protected_set,
                                in_.num_classes));
    }
  }

  void Prepare() {
    std::vector<double> seconds;
    for (int i = 0; i < kBatches; ++i) {
      fairgen::FairGenTrainer trainer(config());
      Supervise(trainer);
      const Clock::time_point start = Clock::now();
      Ok(trainer.Prepare(*in_.graph, rng_));
      seconds.push_back(SecondsSince(start));
    }
    out_.prepare_s = Median(seconds);
  }

  // A fresh model at the workload's shapes, so the probes never touch the
  // trained one's parameters.
  fairgen::FairGenModel NewModel() {
    return fairgen::FairGenModel(
        config(), in_.graph->num_nodes(), model_classes(),
        fairgen::NodeMask(in_.graph->num_nodes(), *in_.protected_set), rng_);
  }

  // f_S as the trainer's last cycle uses it: labeled with the trained
  // model's ground-truth and pseudo labels.
  fairgen::ContextSampler NewSampler() {
    fairgen::ContextSamplerConfig sampler_cfg;
    sampler_cfg.walk_length = config().walk_length;
    sampler_cfg.general_ratio = config().general_ratio;
    fairgen::ContextSampler sampler(*in_.graph, sampler_cfg, model_classes());
    Ok(sampler.SetLabels(in_.trained->current_labels()));
    return sampler;
  }

  void TrainWalk() {
    fairgen::FairGenModel model = NewModel();
    fairgen::nn::TransformerLM& lm = model.generator();
    const uint32_t length = config().walk_length;
    fairgen::ContextSampler sampler = NewSampler();
    const int per_batch = 64;
    std::vector<Walk> positives = sampler.SampleBatch(per_batch / 2, rng_);
    fairgen::Node2VecWalker negative_walker(*in_.graph,
                                            config().negative_walk);
    std::vector<Walk> negatives =
        negative_walker.SampleWalks(per_batch / 2, length, rng_, 1);
    const float floor_logprob =
        -config().negative_floor_scale *
        std::log(static_cast<float>(in_.graph->num_nodes()));

    fairgen::nn::Adam optim(model.GeneratorParameters(), config().generator_lr);
    std::vector<double> fwd;
    std::vector<double> bwd;
    for (int b = 0; b < kBatches; ++b) {
      double fwd_s = 0.0;
      double bwd_s = 0.0;
      for (int i = 0; i < per_batch; ++i) {
        const Walk& walk = i % 2 == 0 ? positives[i / 2] : negatives[i / 2];
        Clock::time_point start = Clock::now();
        fairgen::nn::Var loss;
        if (i % 2 == 0) {
          loss = lm.WalkNll(walk);
        } else {
          std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
          std::vector<uint32_t> targets(walk.begin() + 1, walk.end());
          loss = fairgen::nn::NegativeWalkPenalty(lm.Logits(prefix), targets,
                                                  floor_logprob);
        }
        fwd_s += SecondsSince(start);
        start = Clock::now();
        fairgen::nn::Backward(loss);
        loss.reset();
        bwd_s += SecondsSince(start);
      }
      fwd.push_back(fwd_s / per_batch);
      bwd.push_back(bwd_s / per_batch);
    }
    out_.walk_fwd_us = Median(fwd) * 1e6;
    out_.walk_bwd_us = Median(bwd) * 1e6;

    // The trainer's optimizer step: mean the batch gradients, clip, step.
    const float inv_batch = 1.0f / static_cast<float>(config().generator_batch);
    out_.adam_step_us = 1e6 * MedianPerCall(20, [&](int) {
      for (const fairgen::nn::Var& p : optim.params()) p->grad.Scale(inv_batch);
      optim.ClipGradNorm(config().grad_clip);
      optim.Step();
      optim.ZeroGrad();
    });
  }

  void Kernels() {
    fairgen::FairGenModel model = NewModel();
    const fairgen::nn::Tensor& table =
        model.generator().node_embeddings()->value;
    const size_t rows = config().walk_length - 1;
    const size_t dim = table.cols();
    const size_t n = table.rows();
    fairgen::nn::Tensor hidden =
        fairgen::nn::Tensor::Randn(rows, dim, 1.0f, rng_);
    fairgen::nn::Tensor logits(rows, n);
    fairgen::nn::Tensor probs(rows, n);
    std::vector<uint32_t> targets(rows);
    for (uint32_t& t : targets) t = rng_.UniformU32(static_cast<uint32_t>(n));

    const double matmul_s = MedianPerCall(100, [&](int) {
      fairgen::nn::kernels::MatMulTransB(hidden.data(), table.data(),
                                          logits.data(), rows, dim, n);
    });
    out_.logits_matmul_gflops =
        2.0 * static_cast<double>(rows * dim * n) / matmul_s / 1e9;
    out_.softmax_nll_fwd_us = 1e6 * MedianPerCall(100, [&](int) {
      fairgen::nn::kernels::SoftmaxNllForward(logits.data(), rows, n,
                                               targets.data(), probs.data());
    });
  }

  void Decode() {
    const fairgen::nn::TransformerLM& lm =
        in_.trained->model()->generator();
    fairgen::StartDistribution starts(
        *in_.graph, fairgen::StartDistribution::Kind::kDegreeProportional);
    const uint32_t length = config().walk_length;
    const int walks = 32;
    const double per_walk = MedianPerCall(walks, [&](int) {
      lm.SampleWalk(starts.Sample(rng_), length, rng_, config().temperature);
    });
    out_.decode_token_us = 1e6 * per_walk / static_cast<double>(length - 1);
  }

  void Walks() {
    fairgen::ContextSampler sampler = NewSampler();
    const size_t count = config().num_walks;
    out_.context_walks_per_s =
        1.0 / MedianPerCall(1, [&](int) { sampler.SampleBatch(count, rng_); }) *
        static_cast<double>(count);
    fairgen::Node2VecWalker walker(*in_.graph, config().negative_walk);
    out_.node2vec_walks_per_s =
        1.0 /
        MedianPerCall(1,
                      [&](int) {
                        walker.SampleWalks(count, config().walk_length, rng_,
                                           config().num_threads);
                      }) *
        static_cast<double>(count);
  }

  // One discriminator step of FairGenTrainer::TrainDiscriminator: J_P on
  // ground-truth nodes, J_L on pseudo-labeled nodes, J_F on group samples.
  // Unlabeled workloads never run it; they probe it on stand-in labels and
  // a stand-in group so the metric exists everywhere (their count is zero).
  void FairLearning() {
    fairgen::FairGenModel model = NewModel();
    const fairgen::FairLearningModule& fair = model.fair_module();
    const uint32_t n = in_.graph->num_nodes();
    std::vector<int32_t> truth = *in_.labels;
    std::vector<int32_t> current = in_.trained->current_labels();
    std::vector<NodeId> protected_set = *in_.protected_set;
    if (in_.num_classes == 0) {
      for (NodeId v = 0; v < n; ++v) {
        current[v] = static_cast<int32_t>(v % 2);
        truth[v] = v < 10 ? current[v] : fairgen::kUnlabeled;
        if (v % 10 == 0) protected_set.push_back(v);
      }
    }
    std::vector<uint32_t> gt_nodes, gt_labels, ps_nodes, ps_labels;
    for (NodeId v = 0; v < n; ++v) {
      if (truth[v] != fairgen::kUnlabeled) {
        gt_nodes.push_back(v);
        gt_labels.push_back(static_cast<uint32_t>(truth[v]));
      } else if (current[v] != fairgen::kUnlabeled) {
        ps_nodes.push_back(v);
        ps_labels.push_back(static_cast<uint32_t>(current[v]));
      }
    }
    auto take = [&](std::vector<uint32_t>& v, size_t k) {
      if (v.size() > k) v.resize(k);
    };
    take(gt_nodes, config().batch_size);
    take(gt_labels, config().batch_size);
    take(ps_nodes, config().batch_size);
    take(ps_labels, config().batch_size);
    std::vector<uint32_t> prot(protected_set.begin(), protected_set.end());
    std::vector<uint32_t> unprot = fairgen::ComplementSet(n, protected_set);
    take(prot, config().parity_sample);
    take(unprot, config().parity_sample);

    fairgen::nn::Adam optim(model.DiscriminatorParameters(),
                            config().discriminator_lr);
    out_.disc_step_ms = 1e3 * MedianPerCall(5, [&](int) {
      optim.ZeroGrad();
      fairgen::nn::Var loss =
          fair.PredictionLoss(gt_nodes, gt_labels, config().alpha);
      if (!ps_nodes.empty()) {
        loss = fairgen::nn::Add(
            loss, fair.PropagationLoss(ps_nodes, ps_labels, config().beta));
      }
      loss = fairgen::nn::Add(loss,
                              fair.ParityLoss(prot, unprot, config().gamma));
      fairgen::nn::Backward(loss);
      optim.ClipGradNorm(config().grad_clip);
      optim.Step();
    });

    fairgen::nn::Tensor log_proba;
    out_.logproba_all_ms = 1e3 * MedianPerCall(1, [&](int) {
      log_proba = fair.LogProbaAll();
    });
    fairgen::SelfPacedScheduler scheduler(config().lambda,
                                          config().lambda_growth);
    out_.self_paced_update_ms = 1e3 * MedianPerCall(1, [&](int) {
      scheduler.Update(log_proba, truth, config().beta);
    });
  }

  void Checkpoint() {
    const std::string path = in_.scratch_dir + "/probe.fgckpt";
    out_.checkpoint_save_s =
        MedianPerCall(1, [&](int) { Ok(in_.trained->SaveCheckpoint(path)); });
    std::error_code ec;
    out_.checkpoint_bytes = std::filesystem::file_size(path, ec);

    fairgen::FairGenTrainer restored(config());
    Supervise(restored);
    Ok(restored.Prepare(*in_.graph, rng_));
    out_.checkpoint_load_s =
        MedianPerCall(1, [&](int) { Ok(restored.LoadCheckpoint(path)); });
    std::filesystem::remove(path, ec);
  }

  // Generate's two halves through public calls: walk decoding into the
  // score matrix B at the workload's budget and thread count, then the
  // fair assembly of B. Walks start as FairGenTrainer::AccumulateWalks
  // starts them: degree-proportional with probability general_ratio, else
  // at a uniform member of a uniform labeled class.
  void ScoreEdges() {
    const fairgen::nn::TransformerLM& lm =
        in_.trained->model()->generator();
    fairgen::StartDistribution starts(
        *in_.graph, fairgen::StartDistribution::Kind::kDegreeProportional);
    std::vector<std::vector<NodeId>> class_nodes;
    if (in_.num_classes > 0) {
      const std::vector<int32_t>& labels = in_.trained->current_labels();
      class_nodes.resize(in_.num_classes);
      for (NodeId v = 0; v < labels.size(); ++v) {
        if (labels[v] != fairgen::kUnlabeled) {
          class_nodes[static_cast<size_t>(labels[v])].push_back(v);
        }
      }
      std::erase_if(class_nodes, [](const auto& c) { return c.empty(); });
    }
    auto sample_start = [&](Rng& worker_rng) {
      if (!class_nodes.empty() &&
          !worker_rng.Bernoulli(config().general_ratio)) {
        const auto& members = class_nodes[worker_rng.UniformU32(
            static_cast<uint32_t>(class_nodes.size()))];
        return members[worker_rng.UniformU32(
            static_cast<uint32_t>(members.size()))];
      }
      return starts.Sample(worker_rng);
    };
    const uint64_t target = static_cast<uint64_t>(
        config().gen_transition_multiplier *
        static_cast<double>(in_.graph->num_edges()));
    std::atomic<uint64_t> decoded{0};
    const Clock::time_point start = Clock::now();
    fairgen::EdgeScoreAccumulator scores = fairgen::AccumulateWalkScores(
        in_.graph->num_nodes(), target, config().num_threads, rng_,
        [&](Rng& worker_rng) {
          Walk walk = lm.SampleWalk(sample_start(worker_rng),
                                    config().walk_length, worker_rng,
                                    config().temperature);
          decoded.fetch_add(walk.size() - 1, std::memory_order_relaxed);
          return walk;
        });
    out_.score_edges_s = SecondsSince(start);
    out_.distinct_edge_ratio = static_cast<double>(scores.num_scored_edges()) /
                               static_cast<double>(std::max<uint64_t>(
                                   1, decoded.load()));

    out_.assemble_s = MedianPerCall(1, [&](int) {
      Ok(fairgen::AssembleFairGraph(scores, *in_.graph, *in_.protected_set,
                                    fairgen::AssemblerCriteria{}, rng_)
             .status());
    });
  }

  const ProbeInput& in_;
  SpanRecorder* spans_;
  Rng rng_;
  LayerProbes out_;
};

}  // namespace

LayerProbes RunLayerProbes(const ProbeInput& in, SpanRecorder* spans) {
  return ProbeRunner(in, spans).Run();
}

LayerProbes MedianOfRounds(const std::vector<LayerProbes>& rounds) {
  LayerProbes out;
  for (double LayerProbes::*field :
       {&LayerProbes::prepare_s, &LayerProbes::walk_fwd_us,
        &LayerProbes::walk_bwd_us, &LayerProbes::adam_step_us,
        &LayerProbes::logits_matmul_gflops, &LayerProbes::softmax_nll_fwd_us,
        &LayerProbes::decode_token_us, &LayerProbes::context_walks_per_s,
        &LayerProbes::node2vec_walks_per_s, &LayerProbes::disc_step_ms,
        &LayerProbes::logproba_all_ms, &LayerProbes::self_paced_update_ms,
        &LayerProbes::checkpoint_save_s, &LayerProbes::checkpoint_load_s,
        &LayerProbes::score_edges_s, &LayerProbes::distinct_edge_ratio,
        &LayerProbes::assemble_s}) {
    std::vector<double> values;
    for (const LayerProbes& r : rounds) values.push_back(r.*field);
    out.*field = Median(values);
  }
  out.checkpoint_bytes = rounds.back().checkpoint_bytes;
  for (const LayerProbes& r : rounds) {
    out.calls += r.calls;
    out.failed += r.failed;
  }
  return out;
}

FitCounts CountFitWork(const FairGenConfig& config, bool supervised) {
  FitCounts c;
  const uint64_t k = config.num_walks;
  const uint64_t cycles = config.self_paced_cycles;
  for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
    const uint64_t positives = k * std::min<uint64_t>(cycle + 1, 4);
    const uint64_t negatives = config.refresh_negatives ? positives : k;
    const uint64_t pool = positives + negatives;
    c.train_walks += config.generator_epochs * pool;
    c.adam_steps += config.generator_epochs *
                    ((pool + config.generator_batch - 1) /
                     config.generator_batch);
  }
  c.context_walks = k * (1 + cycles);
  c.node2vec_walks = k;
  if (config.refresh_negatives) {
    c.negative_tokens = cycles * k * (config.walk_length - 1);
  }
  if (supervised) {
    c.disc_steps = cycles * config.batch_iterations;
    if (config.variant != fairgen::FairGenVariant::kNoSelfPaced) {
      c.logproba_calls = cycles;
      c.self_paced_updates = cycles;
    }
  }
  return c;
}

std::vector<FitTerm> PredictFit(const LayerProbes& p, const FitCounts& c) {
  return {
      {"core.trainer.prepare", p.prepare_s, 1},
      {"nn.train_walk_fwd", p.walk_fwd_us * 1e-6, c.train_walks},
      {"nn.train_walk_bwd", p.walk_bwd_us * 1e-6, c.train_walks},
      {"nn.adam_step", p.adam_step_us * 1e-6, c.adam_steps},
      {"walk.context", 1.0 / p.context_walks_per_s, c.context_walks},
      {"walk.node2vec", 1.0 / p.node2vec_walks_per_s, c.node2vec_walks},
      {"nn.decode_token", p.decode_token_us * 1e-6, c.negative_tokens},
      {"core.fair.disc_step", p.disc_step_ms * 1e-3, c.disc_steps},
      {"core.fair.logproba_all", p.logproba_all_ms * 1e-3, c.logproba_calls},
      {"core.self_paced.update", p.self_paced_update_ms * 1e-3,
       c.self_paced_updates},
  };
}

}  // namespace fairgen_bench
