#ifndef FAIRGEN_CORE_TRAINER_H_
#define FAIRGEN_CORE_TRAINER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/assembler.h"
#include "core/fairgen_config.h"
#include "core/fairgen_model.h"
#include "core/self_paced.h"
#include "core/walk_dataset.h"
#include "generators/generator.h"
#include "graph/transition.h"
#include "nn/optimizer.h"
#include "rng/sampling.h"
#include "walk/context_sampler.h"

namespace fairgen {

class CheckpointReader;

/// \brief The components of the joint objective J (Eq. 3), recorded once
/// per self-paced cycle. Values are empirical means over the cycle's
/// minibatches.
struct FairGenLosses {
  double j_g = 0.0;  ///< label-informed generator loss (Eq. 4 + neg term)
  double j_p = 0.0;  ///< cost-sensitive prediction loss (Eq. 8, 1st term)
  double j_f = 0.0;  ///< statistical-parity loss (Eq. 8, 2nd term)
  double j_l = 0.0;  ///< label-propagation loss (Eq. 12, 1st term)
  double j_s = 0.0;  ///< self-paced regularizer (Eq. 12, 2nd term)

  /// J = J_G + J_P + J_F + J_L + J_S.
  double total() const { return j_g + j_p + j_f + j_l + j_s; }
  /// The discriminator-side losses J_P + J_L + J_F + J_S (Fig. 7c).
  double discriminator() const { return j_p + j_f + j_l + j_s; }
};

/// \brief FairGen's training driver: Algorithm 1 of the paper, plus
/// fairness-aware generation (Sec. II-D). Implements the common
/// `GraphGenerator` protocol so it can run in the evaluation zoo next to
/// the baselines.
///
/// Supply label information and the protected-group membership with
/// `SetSupervision` before `Fit`. Without supervision (the paper's
/// unlabeled datasets Email/FB/GNU/CA), FairGen degrades gracefully to a
/// structure-only walk generator with the fair assembler's minimum-degree
/// criterion.
class FairGenTrainer : public GraphGenerator {
 public:
  explicit FairGenTrainer(FairGenConfig config = {});

  /// Registers supervision: `labels[v]` is kUnlabeled or a class id, and
  /// `protected_set` lists the vertices of S+. `num_classes` == 0 infers
  /// C = max(label) + 1.
  Status SetSupervision(std::vector<int32_t> labels,
                        std::vector<NodeId> protected_set,
                        uint32_t num_classes = 0);

  std::string name() const override {
    return FairGenVariantName(config_.variant);
  }

  /// Builds the model, sampler, and start distribution for `graph`
  /// without training — the setup half of Fit. Use together with
  /// LoadCheckpoint to restore a previously trained model.
  Status Prepare(const Graph& graph, Rng& rng);

  /// Runs Algorithm 1 (Prepare + the self-paced training cycles).
  Status Fit(const Graph& graph, Rng& rng) override;

  /// Saves all trained parameters (g_θ including the shared embeddings,
  /// plus the d_θ head) and the current label assignment to a sectioned
  /// FGCKPT2 checkpoint, written atomically. Requires Fit or Prepare.
  /// The file also records a config/graph fingerprint so a mismatched
  /// load fails with a descriptive error instead of garbage weights.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores parameters saved by SaveCheckpoint into a model prepared
  /// with the same config and graph. Validates the fingerprint, every
  /// tensor shape, and the label range before mutating anything — a
  /// corrupted or mismatched file never leaves a half-overwritten model.
  Status LoadCheckpoint(const std::string& path);

  /// Writes the most recent pending training checkpoint (captured at the
  /// last completed self-paced cycle boundary) to its file. Installed as
  /// the CLI's signal flush so SIGINT/SIGTERM persist progress; safe to
  /// call from any thread while training runs on. It waits for the
  /// training loop's checkpoint lock, unless `wait_for_lock` is false:
  /// then it gives up when the lock is held, which is what a signal
  /// handler must do (the interrupted thread may hold it). The write
  /// itself is async-signal-safe (WriteFileAtomicSignalSafe on buffers
  /// built at the cycle boundary). A no-op when nothing is pending.
  /// Never throws; failures are swallowed (best-effort crash path).
  void WriteEmergencyCheckpoint(bool wait_for_lock = true);

  /// Generates synthetic walks from g_θ and assembles them under the
  /// fairness criteria of Sec. II-D.
  Result<Graph> Generate(Rng& rng) override;

  /// Candidate-edge scores from freshly sampled synthetic walks (the B
  /// matrix entries), for ranking potential edges in augmentation.
  Result<std::vector<std::pair<Edge, double>>> ScoreEdges(Rng& rng) override;

  /// Like Generate(), but with explicit assembly criteria — used by the
  /// assembler ablation study (disable criterion 1 and/or 2 of Sec. II-D).
  Result<Graph> GenerateWithCriteria(const AssemblerCriteria& criteria,
                                     Rng& rng);

  /// Losses of the final self-paced cycle.
  const FairGenLosses& losses() const { return loss_history_.back(); }

  /// Losses per self-paced cycle l = 1..p.
  const std::vector<FairGenLosses>& loss_history() const {
    return loss_history_;
  }

  /// The joint model (null before Fit).
  const FairGenModel* model() const { return model_.get(); }

  /// Current label assignment (ground truth + pseudo labels).
  const std::vector<int32_t>& current_labels() const { return labels_; }

  /// Number of pseudo-labeled nodes after the last cycle.
  uint32_t num_pseudo_labeled() const { return num_pseudo_labeled_; }

  /// Assembly diagnostics of the last Generate() call.
  const AssemblyReport& last_assembly_report() const {
    return assembly_report_;
  }

  const FairGenConfig& config() const { return config_; }

 private:
  /// Decoded training state of a checkpoint, fully validated before any
  /// of it is committed to the trainer (no partial restores).
  struct DecodedCheckpoint;

  /// Whether supervision with at least one labeled node was provided.
  bool has_supervision() const { return num_classes_ > 0 && has_labels_; }

  /// The key=value fingerprint of everything that shapes the training
  /// trajectory: all trajectory-relevant config fields plus the graph and
  /// supervision dimensions. Thread count and checkpoint options are
  /// excluded (results are bit-identical across both).
  std::string Fingerprint() const;

  /// Serializes the full resumable training state (model, both optimizer
  /// moments, labels, self-paced λ, loss history, RNG, walk pools) as an
  /// FGCKPT2 blob. `next_cycle` is the first cycle still to run.
  std::string SerializeTrainingCheckpoint(uint32_t next_cycle, float lambda,
                                          const Rng& rng) const;

  /// Decodes and validates every section of `reader` without touching the
  /// trainer; returns InvalidArgument on any mismatch or corruption.
  Status DecodeTrainingCheckpoint(const CheckpointReader& reader,
                                  DecodedCheckpoint* out) const;

  /// Commits a decoded checkpoint: restores model/optimizers/labels/
  /// scheduler/RNG/walk pools and reports the cycle to resume from.
  Status CommitCheckpoint(DecodedCheckpoint decoded,
                          SelfPacedScheduler& scheduler, Rng& rng,
                          uint32_t* next_cycle);

  /// Resumes from the newest valid checkpoint in `dir`, falling back to
  /// older files on corruption (with a warning). Returns false when the
  /// directory holds no checkpoints (fresh start); an error when every
  /// checkpoint present is unusable.
  Result<bool> TryResume(const std::string& dir,
                         SelfPacedScheduler& scheduler, Rng& rng,
                         uint32_t* next_cycle);

  /// Captures the state at a cycle boundary into the emergency
  /// double-buffer (lock-free: the publishing store is the only sync).
  void UpdatePendingCheckpoint(const std::string& dir, uint32_t next_cycle,
                               float lambda, const Rng& rng);

  /// Writes the pending checkpoint file (periodic cadence path): atomic
  /// write, rotation, and checkpoint metrics.
  Status WritePendingCheckpoint();

  /// One generator-training pass over the current N+/N− pools; returns the
  /// mean generator loss. Each minibatch is split into a fixed number of
  /// gradient shards that run on the pool (nn/data_parallel.h).
  /// Non-finite walk loss values are skipped from the mean and counted in
  /// `trainer.nonfinite_batches`.
  double TrainGenerator(Rng& rng);

  /// In-training fairness probe (`--probe-every`): held-out-walk
  /// disparity (R(θ) vs R_{S+}(θ)) and a small-generation discrepancy
  /// estimate on the live model, published as `probe.*` metric series and
  /// a `probe` journal event. Draws only from a probe-local cycle-keyed
  /// RNG — never the training stream — so probed and unprobed runs
  /// produce bit-identical outputs.
  void RunFairnessProbe(uint32_t cycle);

  /// T1 discriminator steps on N1-node minibatches; accumulates J_P/J_F/J_L
  /// means into `losses`.
  void TrainDiscriminator(FairGenLosses& losses, Rng& rng);

  /// Samples K negative walks from the current generator.
  std::vector<Walk> SampleGeneratorWalks(size_t count, Rng& rng) const;

  /// Samples generation walks into a score accumulator (Sec. II-D).
  EdgeScoreAccumulator AccumulateWalks(Rng& rng) const;

  FairGenConfig config_;
  Graph fitted_graph_{Graph::Empty(0)};
  bool fitted_ = false;

  // Supervision.
  std::vector<int32_t> ground_truth_;
  std::vector<NodeId> protected_set_;
  uint32_t num_classes_ = 0;
  bool has_labels_ = false;

  // Training state.
  std::unique_ptr<FairGenModel> model_;
  std::unique_ptr<ContextSampler> sampler_;
  std::unique_ptr<StartDistribution> start_table_;
  WalkDataset dataset_;
  std::vector<int32_t> labels_;
  uint32_t num_pseudo_labeled_ = 0;
  std::vector<FairGenLosses> loss_history_;
  AssemblyReport assembly_report_;

  // Armed by Fit from FAIRGEN_INJECT_NAN_LOSS: the next this-many
  // generator batches record a NaN loss value (fault injection for the
  // watchdog suites; gradients are untouched).
  uint32_t inject_nan_batches_ = 0;

  // Persistent optimizers (created in Prepare): the Adam moments live
  // across self-paced cycles so they can be checkpointed and resumed
  // mid-run without changing the update trajectory.
  std::unique_ptr<nn::Adam> gen_optim_;
  std::unique_ptr<nn::Adam> disc_optim_;

  // The state at the last completed cycle boundary, serialized there
  // together with its staging path, so the emergency write allocates
  // nothing. An empty path means nothing is pending. `pending_mu_` guards
  // it: the training loop serializes outside the lock and swaps the new
  // checkpoint in under it, and both file writes (the cadence write and
  // the emergency write) hold it, so they never share the staging file
  // and the emergency write never reads a blob that is being replaced.
  struct PendingCheckpoint {
    std::string path;
    std::string tmp_path;
    std::string blob;
    uint32_t cycle = 0;
  };
  std::mutex pending_mu_;
  PendingCheckpoint pending_;
};

}  // namespace fairgen

#endif  // FAIRGEN_CORE_TRAINER_H_
