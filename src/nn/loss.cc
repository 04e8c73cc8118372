#include "nn/loss.h"

#include <sys/mman.h>

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/memprobe.h"
#include "nn/autograd.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn {

using internal::MakeOpNode;

namespace {
// The softmax kernels read logits[r, targets[r]] and write
// dlogits[r, targets[r]] unchecked; an out-of-vocabulary node (say, the
// last node of a user walk) would otherwise read and write past the row.
void CheckTargets(const std::vector<uint32_t>& targets, size_t cols) {
  for (uint32_t t : targets) {
    FAIRGEN_CHECK(t < cols) << "target " << t
                            << " is outside the vocabulary of " << cols;
  }
}
}  // namespace

// Fused softmax + NLL (kernels::SoftmaxNll{Forward,Backward}) replaces
// the old LogSoftmaxRows → PickPerRow → MeanAll → Scale chain: one pass
// over the logits forward, one backward, and the only intermediate kept
// alive for the tape is the [T', V] softmax itself (charged to NnBytes
// like any tensor). Under a NoGradScope the closure (and the cached
// softmax) is dropped immediately.
Var SequenceNll(const Var& logits, const std::vector<uint32_t>& targets) {
  FAIRGEN_CHECK(logits->rows() == targets.size());
  const size_t rows = logits->rows();
  const size_t cols = logits->cols();
  CheckTargets(targets, cols);
  auto probs = std::make_shared<Tensor>(rows, cols);
  const double total = kernels::SoftmaxNllForward(
      logits->value.data(), rows, cols, targets.data(), probs->data());
  const float mean = static_cast<float>(total / static_cast<double>(rows));
  return MakeOpNode(
      Tensor::Scalar(mean), {logits},
      [targets, probs](Node& n) {
        Node* p = n.parents[0].get();
        const float g = n.grad.ScalarValue() /
                        static_cast<float>(p->value.rows());
        kernels::SoftmaxNllBackward(probs->data(), targets.data(),
                                    /*row_mask=*/nullptr, g, p->value.rows(),
                                    p->value.cols(), p->grad.data());
      },
      "softmax_nll");
}

Var NegativeWalkPenalty(const Var& logits,
                        const std::vector<uint32_t>& targets,
                        float floor_logprob) {
  FAIRGEN_CHECK(logits->rows() == targets.size());
  const size_t rows = logits->rows();
  const size_t cols = logits->cols();
  CheckTargets(targets, cols);
  // mean_t relu(log p_t − floor): log p_t is −nll_t, so the fused forward
  // yields every per-row term in one pass; rows above the floor form the
  // relu-active mask the backward replays (grad flows only where the
  // hinge is strictly positive, matching the Relu op's convention).
  auto probs = std::make_shared<Tensor>(rows, cols);
  auto mask = std::make_shared<std::vector<uint8_t>>(rows, uint8_t{0});
  double total = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const double nll = kernels::SoftmaxNllForward(
        logits->value.row(r), 1, cols, &targets[r], probs->row(r));
    const double hinge = -nll - static_cast<double>(floor_logprob);
    if (hinge > 0.0) {
      (*mask)[r] = 1;
      total += hinge;
    }
  }
  const float mean = static_cast<float>(total / static_cast<double>(rows));
  return MakeOpNode(
      Tensor::Scalar(mean), {logits},
      [targets, probs, mask](Node& n) {
        Node* p = n.parents[0].get();
        // d logp_t = g/T on active rows; dlogits = −d logp_t · (softmax −
        // onehot), i.e. the NLL backward with a negated scale.
        const float g = -n.grad.ScalarValue() /
                        static_cast<float>(p->value.rows());
        kernels::SoftmaxNllBackward(probs->data(), targets.data(),
                                    mask->data(), g, p->value.rows(),
                                    p->value.cols(), p->grad.data());
      },
      "negative_walk_penalty");
}

WalkLossWorkspace::~WalkLossWorkspace() {
  if (data_ != nullptr) {
    munmap(data_, capacity_ * sizeof(float));
    memprobe::NnBytes().Sub(capacity_ * sizeof(float));
  }
}

float* WalkLossWorkspace::Reserve(size_t floats) {
  if (floats <= capacity_) return data_;
  if (data_ != nullptr) {
    munmap(data_, capacity_ * sizeof(float));
    memprobe::NnBytes().Sub(capacity_ * sizeof(float));
  }
  void* mapped = mmap(nullptr, floats * sizeof(float),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  FAIRGEN_CHECK(mapped != MAP_FAILED)
      << "cannot map a " << floats * sizeof(float)
      << "-byte walk-loss workspace";
  data_ = static_cast<float*>(mapped);
  capacity_ = floats;
  memprobe::NnBytes().Add(capacity_ * sizeof(float));
  return data_;
}

Var TiedWalkLoss(const Var& hidden, const Var& table,
                 const StackedWalkTargets& batch,
                 std::vector<float>* walk_losses,
                 WalkLossWorkspace* workspace) {
  const size_t rows = hidden->rows();
  const size_t dim = hidden->cols();
  const size_t vocab = table->rows();
  const size_t walks = batch.negative.size();
  FAIRGEN_CHECK(table->cols() == dim);
  FAIRGEN_CHECK(walks > 0 && batch.offsets.size() == walks + 1 &&
                batch.offsets.front() == 0 && batch.offsets.back() == rows)
      << "walk offsets must run from 0 to " << rows;
  FAIRGEN_CHECK(batch.targets.size() == rows);
  CheckTargets(batch.targets, vocab);

  // One [R, V] block: logits, then (in place) softmax, then dlogits. A
  // workspace also holds the [V, D] table-gradient product after it.
  std::shared_ptr<std::vector<float>> owned;
  float* block = nullptr;
  uint64_t generation = 0;
  if (workspace != nullptr) {
    block = workspace->Reserve(rows * vocab + vocab * dim);
    generation = ++workspace->generation_;
  } else {
    owned = std::make_shared<std::vector<float>>(rows * vocab);
    block = owned->data();
  }
  kernels::MatMulTransB(hidden->value.data(), table->value.data(), block,
                        rows, dim, vocab);

  // Rows whose term is active: every row of a positive walk; for a
  // negative walk, the rows above the hinge floor (see
  // NegativeWalkPenalty).
  auto active = std::make_shared<std::vector<uint8_t>>(rows, uint8_t{1});
  if (walk_losses != nullptr) walk_losses->resize(walks);
  double sum = 0.0;
  for (size_t w = 0; w < walks; ++w) {
    const size_t lo = batch.offsets[w];
    FAIRGEN_CHECK(lo < batch.offsets[w + 1]) << "walk " << w << " is empty";
    const size_t len = batch.offsets[w + 1] - lo;
    double total = 0.0;
    if (batch.negative[w] == 0) {
      total = kernels::SoftmaxNllForward(block + lo * vocab, len, vocab,
                                         &batch.targets[lo],
                                         block + lo * vocab);
    } else {
      for (size_t r = lo; r < lo + len; ++r) {
        const double nll = kernels::SoftmaxNllForward(
            block + r * vocab, 1, vocab, &batch.targets[r],
            block + r * vocab);
        const double hinge = -nll - static_cast<double>(batch.floor_logprob);
        if (hinge > 0.0) {
          total += hinge;
        } else {
          (*active)[r] = 0;
        }
      }
    }
    const float loss = static_cast<float>(total / static_cast<double>(len));
    if (walk_losses != nullptr) (*walk_losses)[w] = loss;
    sum += loss;
  }
  return MakeOpNode(
      Tensor::Scalar(static_cast<float>(sum)), {hidden, table},
      [batch, active, owned, block, workspace, generation](Node& n) {
        FAIRGEN_CHECK(workspace == nullptr ||
                      workspace->generation_ == generation)
            << "walk-loss workspace reused before this loss's backward";
        Node* px = n.parents[0].get();
        Node* pt = n.parents[1].get();
        const size_t rows = px->value.rows();
        const size_t dim = px->value.cols();
        const size_t vocab = pt->value.rows();
        // dlogits = g_w · (softmax − onehot) on active rows, 0 elsewhere,
        // with g_w = ±upstream / rows of walk w (−: negative penalty).
        const float upstream = n.grad.ScalarValue();
        for (size_t w = 0; w + 1 < batch.offsets.size(); ++w) {
          const size_t lo = batch.offsets[w];
          const size_t hi = batch.offsets[w + 1];
          const float g = (batch.negative[w] != 0 ? -upstream : upstream) /
                          static_cast<float>(hi - lo);
          for (size_t r = lo; r < hi; ++r) {
            float* row = block + r * vocab;
            if ((*active)[r] == 0) {
              std::fill(row, row + vocab, 0.0f);
              continue;
            }
            kernels::Scale(row, g, vocab);
            row[batch.targets[r]] -= g;
          }
        }
        if (px->requires_grad) {
          // dhidden = dlogits · table
          std::vector<float> dx(rows * dim);
          kernels::MatMul(block, pt->value.data(), dx.data(), rows, vocab,
                          dim);
          kernels::Add(px->grad.data(), dx.data(), dx.size());
        }
        if (pt->requires_grad) {
          // dtable = dlogitsᵀ · hidden
          std::vector<float> local;
          float* dt = block + rows * vocab;
          if (workspace == nullptr) {
            local.resize(vocab * dim);
            dt = local.data();
          }
          kernels::MatMulTransA(block, px->value.data(), dt, vocab, rows,
                                dim);
          kernels::Add(pt->grad.data(), dt, vocab * dim);
        }
      },
      "tied_walk_loss");
}

Var SoftmaxCrossEntropy(const Var& logits,
                        const std::vector<uint32_t>& labels) {
  return SequenceNll(logits, labels);
}

Var WeightedSoftmaxCrossEntropy(const Var& logits,
                                const std::vector<uint32_t>& labels,
                                const std::vector<float>& weights) {
  FAIRGEN_CHECK(logits->rows() == labels.size());
  FAIRGEN_CHECK(weights.size() == labels.size());
  Var logp = PickPerRow(LogSoftmaxRows(logits), labels);  // [B, 1]
  std::vector<float> neg_weights(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) neg_weights[i] = -weights[i];
  return WeightedColumnSum(logp, neg_weights);
}

Var BceWithLogits(const Var& logits, const std::vector<float>& targets) {
  FAIRGEN_CHECK(logits->value.size() == targets.size());
  // loss_i = max(z, 0) − z·y + log(1 + exp(−|z|)); implemented as a fused
  // op with an exact analytic backward (sigmoid(z) − y) / N.
  const Tensor& z = logits->value;
  double total = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    float zi = z.data()[i];
    float yi = targets[i];
    total += std::max(zi, 0.0f) - zi * yi + std::log1p(std::exp(-std::abs(zi)));
  }
  float mean = static_cast<float>(total / static_cast<double>(z.size()));
  return MakeOpNode(
      Tensor::Scalar(mean), {logits},
      [targets](Node& n) {
        Node* p = n.parents[0].get();
        float g = n.grad.ScalarValue() /
                  static_cast<float>(p->value.size());
        for (size_t i = 0; i < p->value.size(); ++i) {
          float zi = p->value.data()[i];
          float sig = 1.0f / (1.0f + std::exp(-zi));
          p->grad.data()[i] += g * (sig - targets[i]);
        }
      },
      "bce_with_logits");
}

}  // namespace fairgen::nn
