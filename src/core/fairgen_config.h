#ifndef FAIRGEN_CORE_FAIRGEN_CONFIG_H_
#define FAIRGEN_CORE_FAIRGEN_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "walk/node2vec_walk.h"

namespace fairgen {

/// \brief Ablation variants of FairGen evaluated in the paper
/// (Sec. III-A, "Comparison Methods").
enum class FairGenVariant {
  kFull = 0,        ///< FAIRGEN
  kRandom,          ///< FAIRGEN-R: walks sampled via uniform distribution
  kNoSelfPaced,     ///< FAIRGEN-w/o-SPL: no self-paced label propagation
  kNoParity,        ///< FAIRGEN-w/o-Parity: no statistical-parity term
};

/// \brief Human-readable variant name matching the paper's figures.
std::string FairGenVariantName(FairGenVariant variant);

/// \brief Fault-tolerance knobs of `FairGenTrainer::Fit`: periodic
/// training checkpoints and crash/resume behavior. Disabled unless `dir`
/// is set. Checkpointing is observation-plus-I/O only — it never draws
/// from the run's `Rng`, so enabling it does not change any model output.
struct CheckpointOptions {
  /// Directory for `ckpt-*.fgckpt` files; created if absent. Empty
  /// disables checkpointing.
  std::string dir;
  /// Write a checkpoint every N self-paced cycles (>= 1). Independent of
  /// cadence, Fit always writes a final checkpoint when training ends.
  uint32_t every_cycles = 1;
  /// Keep at most this many checkpoint files (oldest deleted first).
  uint32_t retain = 3;
  /// Resume from the newest valid checkpoint in `dir` when Fit starts.
  /// An empty directory starts fresh; a directory holding only corrupt
  /// checkpoints is an error. The restored run replays the uninterrupted
  /// run bit for bit (same seed and config).
  bool resume = false;
};

/// \brief All hyperparameters of FairGen (Algorithm 1 inputs plus model
/// sizes). Paper defaults from Sec. III-B where applicable; model widths
/// are scaled to CPU training (see DESIGN.md).
struct FairGenConfig {
  // --- Algorithm 1 inputs -------------------------------------------------
  uint32_t walk_length = 10;        ///< T
  uint32_t num_walks = 300;         ///< K walks per sampling round
  uint32_t batch_iterations = 3;    ///< T1
  uint32_t batch_size = 128;        ///< N1
  uint32_t self_paced_cycles = 4;   ///< p
  double general_ratio = 0.5;       ///< r
  float alpha = 1.0f;               ///< weight of J_P
  float beta = 1.0f;                ///< weight of J_L
  float gamma = 1.0f;               ///< weight of J_F
  /// Initial self-paced threshold λ; a node is pseudo-labeled when
  /// −log P(ŷ=c|x) < λ, i.e. P > e^{−λ}.
  float lambda = 0.7f;
  /// Multiplicative growth of λ per cycle (Algorithm 1, step 7).
  float lambda_growth = 1.6f;

  // --- Generator g_θ (M1) -------------------------------------------------
  uint32_t embedding_dim = 32;       ///< node embedding dim (paper: 100)
  uint32_t num_heads = 4;            ///< transformer heads (paper: 4)
  uint32_t num_layers = 1;           ///< transformer blocks
  uint32_t ffn_dim = 64;
  uint32_t generator_epochs = 2;     ///< passes over N+/N− per cycle
  uint32_t generator_batch = 16;     ///< walks per optimizer step
  float generator_lr = 3e-3f;
  float grad_clip = 5.0f;
  /// Floor for the negative-walk hinge, in units of log(1/n).
  float negative_floor_scale = 1.0f;
  Node2VecParams negative_walk;      ///< (p, q) of the [32] negative sampler
  /// Algorithm 1 step 6: resample negatives from the *current generator*
  /// every cycle, progressively raising the discrimination difficulty.
  /// false = keep only the initial [32]-sampled negatives (ablation).
  bool refresh_negatives = true;

  // --- Discriminator d_θ (M2) ---------------------------------------------
  uint32_t discriminator_hidden = 32;
  float discriminator_lr = 1e-2f;
  /// Unprotected nodes subsampled per parity evaluation (0 = all).
  uint32_t parity_sample = 256;

  // --- Generation / assembly ----------------------------------------------
  double gen_transition_multiplier = 8.0;
  float temperature = 1.0f;
  /// Worker threads for generation-time walk sampling. 1 = sequential,
  /// 0 = the process-wide default (common/parallel.h). Results are
  /// bit-identical for every setting; this only trades wall-clock.
  uint32_t num_threads = 1;

  // --- Fault tolerance ------------------------------------------------------
  /// Periodic checkpoint/resume of the training loop (see
  /// `CheckpointOptions`; wired to `--checkpoint-dir`/`--checkpoint-every`/
  /// `--resume` on the CLI and benches).
  CheckpointOptions checkpoint;

  // --- Observability --------------------------------------------------------
  /// Run the in-training fairness probe every N self-paced cycles
  /// (0 = off; wired to `--probe-every`). The probe samples held-out
  /// walks and a small generation pass from a *probe-local* RNG stream,
  /// records them as one `probe` journal event per probe (the only
  /// record; it persists in a `--telemetry-dir` run dir's events.jsonl),
  /// and never touches the training `Rng` — like `num_threads` and
  /// `checkpoint`, it is excluded from the trajectory fingerprint because
  /// outputs are bit-identical with the probe on or off.
  uint32_t probe_every = 0;

  // --- Variant -------------------------------------------------------------
  FairGenVariant variant = FairGenVariant::kFull;

  /// Validates ranges; returns InvalidArgument describing the first
  /// violation.
  Status Validate() const;
};

}  // namespace fairgen

#endif  // FAIRGEN_CORE_FAIRGEN_CONFIG_H_
