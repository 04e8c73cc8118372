#ifndef FAIRGEN_GENERATORS_GAE_H_
#define FAIRGEN_GENERATORS_GAE_H_

#include <memory>

#include "generators/generator.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace fairgen {

/// \brief Hyperparameters of the graph auto-encoder baseline.
struct GaeConfig {
  size_t feature_dim = 32;  ///< free input feature width
  size_t hidden_dim = 32;   ///< GCN hidden width
  size_t latent_dim = 16;   ///< embedding width of the decoder
  uint32_t epochs = 60;
  uint32_t edges_per_epoch = 512;  ///< pos+neg minibatch size
  float lr = 0.01f;
  /// Candidate pairs scored at generation time, as a multiple of m.
  double candidate_multiplier = 25.0;
  /// Variational mode (Kipf & Welling's VGAE): the encoder outputs
  /// (μ, log σ²) per node, training samples z via the reparameterization
  /// trick and adds a KL(q(z|x) ‖ N(0, I)) term; generation decodes from
  /// the posterior means.
  bool variational = false;
  /// Weight of the KL term in variational mode.
  float kl_weight = 1e-2f;
};

/// \brief Graph auto-encoder baseline (Kipf & Welling, 2016): a two-layer
/// GCN encoder with an inner-product decoder, trained on edge
/// reconstruction with negative sampling.
///
/// Generation scores a random candidate-pair pool (plus the training
/// positives' two-hop neighborhood would be O(m·d); the pool keeps it
/// O(m)) with σ(z_u · z_v) and releases the m highest-scoring pairs
/// (`AssembleFairGraph` with both criteria off).
class GaeGenerator : public GraphGenerator {
 public:
  explicit GaeGenerator(GaeConfig config = {});
  ~GaeGenerator() override;

  std::string name() const override {
    return config_.variational ? "VGAE" : "GAE";
  }
  Status Fit(const Graph& graph, Rng& rng) override;
  Result<Graph> Generate(Rng& rng) override;
  Result<std::vector<std::pair<Edge, double>>> ScoreEdges(Rng& rng) override;

  /// Final BCE reconstruction loss after training (diagnostics).
  double final_loss() const { return final_loss_; }

 private:
  /// Encoder forward: Z = S·ReLU(S·X·W1)·W2. In variational mode the
  /// output is [n, 2·latent]: posterior means in the first block, log
  /// variances in the second.
  nn::Var Encode() const;

  /// Scores a deduplicated random pool of candidate_multiplier · m pairs
  /// (at most all n(n−1)/2) with the decoder; `Generate` thresholds it,
  /// `ScoreEdges` returns it.
  EdgeScoreAccumulator ScoreCandidatePool(Rng& rng) const;

  GaeConfig config_;
  Graph fitted_graph_{Graph::Empty(0)};
  bool fitted_ = false;
  std::shared_ptr<nn::SparseMatrix> norm_adj_;
  nn::Var features_;  // learned free features [n, feature_dim]
  std::unique_ptr<nn::Linear> w1_;
  std::unique_ptr<nn::Linear> w2_;
  nn::Tensor embeddings_;  // cached Z after Fit
  double final_loss_ = 0.0;
};

/// \brief Builds the symmetrically normalized adjacency with self loops,
/// Ŝ = D̃^{-1/2} (A + I) D̃^{-1/2}, used by GCN encoders.
std::shared_ptr<nn::SparseMatrix> NormalizedAdjacency(const Graph& graph);

}  // namespace fairgen

#endif  // FAIRGEN_GENERATORS_GAE_H_
