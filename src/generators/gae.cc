#include "generators/gae.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "generators/assembler.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace fairgen {

using nn::Var;

std::shared_ptr<nn::SparseMatrix> NormalizedAdjacency(const Graph& graph) {
  const uint32_t n = graph.num_nodes();
  auto s = std::make_shared<nn::SparseMatrix>();
  s->rows = n;
  s->cols = n;
  s->offsets.assign(n + 1, 0);

  std::vector<float> inv_sqrt_deg(n);
  for (NodeId v = 0; v < n; ++v) {
    inv_sqrt_deg[v] =
        1.0f / std::sqrt(static_cast<float>(graph.Degree(v)) + 1.0f);
  }
  for (NodeId v = 0; v < n; ++v) {
    s->offsets[v + 1] = s->offsets[v] + graph.Degree(v) + 1;  // +1 self loop
  }
  s->indices.resize(s->offsets[n]);
  s->values.resize(s->offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    size_t k = s->offsets[v];
    // Self loop.
    s->indices[k] = v;
    s->values[k] = inv_sqrt_deg[v] * inv_sqrt_deg[v];
    ++k;
    for (NodeId u : graph.Neighbors(v)) {
      s->indices[k] = u;
      s->values[k] = inv_sqrt_deg[v] * inv_sqrt_deg[u];
      ++k;
    }
  }
  return s;
}

GaeGenerator::GaeGenerator(GaeConfig config) : config_(config) {}
GaeGenerator::~GaeGenerator() = default;

Var GaeGenerator::Encode() const {
  Var h = nn::Relu(w1_->Forward(nn::SpMM(norm_adj_, features_)));
  return nn::SpMM(norm_adj_, w2_->Forward(h));
}

Status GaeGenerator::Fit(const Graph& graph, Rng& rng) {
  if (graph.num_nodes() < 2 || graph.num_edges() == 0) {
    return Status::InvalidArgument("GAE requires a non-empty graph");
  }
  fitted_graph_ = graph;
  fitted_ = true;
  norm_adj_ = NormalizedAdjacency(graph);

  features_ = nn::MakeParameter(nn::Tensor::Randn(
      graph.num_nodes(), config_.feature_dim,
      1.0f / std::sqrt(static_cast<float>(config_.feature_dim)), rng));
  w1_ = std::make_unique<nn::Linear>(config_.feature_dim, config_.hidden_dim,
                                     rng);
  const size_t encoder_out =
      config_.variational ? 2 * config_.latent_dim : config_.latent_dim;
  w2_ = std::make_unique<nn::Linear>(config_.hidden_dim, encoder_out, rng);

  std::vector<Var> params{features_};
  for (const Var& p : w1_->Parameters()) params.push_back(p);
  for (const Var& p : w2_->Parameters()) params.push_back(p);
  nn::Adam optim(params, config_.lr);

  std::vector<Edge> all_edges = graph.ToEdgeList();
  const uint32_t n = graph.num_nodes();
  const uint32_t half_batch = std::max<uint32_t>(
      1, config_.edges_per_epoch / 2);

  // Ones column for per-row dot products.
  Var ones = nn::MakeConstant(nn::Tensor(config_.latent_dim, 1, 1.0f));

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Positive edges + uniform negative pairs.
    std::vector<uint32_t> heads;
    std::vector<uint32_t> tails;
    std::vector<float> targets;
    heads.reserve(2 * half_batch);
    tails.reserve(2 * half_batch);
    targets.reserve(2 * half_batch);
    for (uint32_t b = 0; b < half_batch; ++b) {
      const Edge& e = all_edges[rng.UniformU32(
          static_cast<uint32_t>(all_edges.size()))];
      heads.push_back(e.u);
      tails.push_back(e.v);
      targets.push_back(1.0f);
    }
    for (uint32_t b = 0; b < half_batch; ++b) {
      NodeId u = rng.UniformU32(n);
      NodeId v = rng.UniformU32(n);
      if (u == v) v = (v + 1) % n;
      heads.push_back(u);
      tails.push_back(v);
      targets.push_back(graph.HasEdge(u, v) ? 1.0f : 0.0f);
    }

    optim.ZeroGrad();
    Var encoded = Encode();
    Var z = encoded;
    Var loss;
    if (config_.variational) {
      // Reparameterization trick: z = μ + ε ⊙ exp(logvar / 2).
      Var mu = nn::SliceCols(encoded, 0, config_.latent_dim);
      Var logvar =
          nn::SliceCols(encoded, config_.latent_dim, config_.latent_dim);
      Var noise = nn::MakeConstant(nn::Tensor::Randn(
          graph.num_nodes(), config_.latent_dim, 1.0f, rng));
      z = nn::Add(mu, nn::Mul(noise, nn::ExpOp(nn::Scale(logvar, 0.5f))));
      // KL(q ‖ N(0, I)) = −0.5 · mean(1 + logvar − μ² − exp(logvar)).
      Var kl = nn::Scale(
          nn::MeanAll(nn::Sub(nn::Add(nn::AddScalar(logvar, 1.0f),
                                      nn::Scale(nn::Square(mu), -1.0f)),
                              nn::ExpOp(logvar))),
          -0.5f * config_.kl_weight);
      loss = kl;
    }
    Var zu = nn::GatherRows(z, heads);
    Var zv = nn::GatherRows(z, tails);
    Var logits = nn::MatMulOp(nn::Mul(zu, zv), ones);  // [B, 1] dot products
    Var bce = nn::BceWithLogits(logits, targets);
    loss = loss == nullptr ? bce : nn::Add(loss, bce);
    nn::Backward(loss);
    optim.ClipGradNorm(5.0);
    optim.Step();
    final_loss_ = loss->value.ScalarValue();
  }

  // Cache the embeddings for generation (posterior means in variational
  // mode).
  Var encoded = Encode();
  if (config_.variational) {
    embeddings_ = nn::SliceCols(encoded, 0, config_.latent_dim)->value;
  } else {
    embeddings_ = encoded->value;
  }
  return Status::OK();
}

EdgeScoreAccumulator GaeGenerator::ScoreCandidatePool(Rng& rng) const {
  const uint32_t n = fitted_graph_.num_nodes();
  const uint64_t max_pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  const uint64_t pool_target = std::min(
      static_cast<uint64_t>(config_.candidate_multiplier *
                            static_cast<double>(fitted_graph_.num_edges())),
      max_pairs);
  const size_t d = embeddings_.cols();
  EdgeScoreAccumulator acc(n);
  std::unordered_set<uint64_t> seen;
  seen.reserve(pool_target * 2);
  uint64_t attempts = 0;
  const uint64_t max_attempts = pool_target * 20 + 1000;
  while (seen.size() < pool_target && attempts < max_attempts) {
    ++attempts;
    NodeId u = rng.UniformU32(n);
    NodeId v = rng.UniformU32(n);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    uint64_t key = static_cast<uint64_t>(u) * n + v;
    if (!seen.insert(key).second) continue;
    const float* zu = embeddings_.row(u);
    const float* zv = embeddings_.row(v);
    double dot = 0.0;
    for (size_t k = 0; k < d; ++k) dot += zu[k] * zv[k];
    // Shift so that scores are positive (accumulator semantics); the
    // ordering, which is all thresholding uses, is unchanged.
    acc.AddEdge(u, v, 1.0 / (1.0 + std::exp(-dot)) + 1e-9);
  }
  acc.Compact();
  return acc;
}

Result<Graph> GaeGenerator::Generate(Rng& rng) {
  if (!fitted_) {
    return Status::FailedPrecondition("Fit must be called before Generate");
  }
  return AssembleFairGraph(ScoreCandidatePool(rng), fitted_graph_, {},
                           AssemblerCriteria{false, false}, rng);
}

Result<std::vector<std::pair<Edge, double>>> GaeGenerator::ScoreEdges(
    Rng& rng) {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "Fit must be called before ScoreEdges");
  }
  return ScoreCandidatePool(rng).ScoredEdges();
}

}  // namespace fairgen
