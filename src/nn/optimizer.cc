#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn {

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const Var& p : params_) {
    FAIRGEN_CHECK(p != nullptr && p->requires_grad);
    p->EnsureGrad();
  }
}

void Optimizer::ZeroGrad() { fairgen::nn::ZeroGrad(params_); }

double Optimizer::ClipGradNorm(double max_norm) {
  double norm = std::sqrt(GradNormSquared(params_));
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (const Var& p : params_) p->grad.Scale(scale);
  }
  return norm;
}

Status Optimizer::ValidateState(const OptimizerState& state,
                                size_t expected_slots) const {
  if (state.type != type()) {
    return Status::InvalidArgument(
        "optimizer mismatch: checkpoint was saved with '" + state.type +
        "', resuming with '" + type() + "'");
  }
  if (state.slots.size() != expected_slots) {
    return Status::InvalidArgument(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " moment tensors, expected " + std::to_string(expected_slots));
  }
  for (size_t i = 0; i < state.slots.size(); ++i) {
    const Tensor& ref = params_[i % params_.size()]->value;
    if (!state.slots[i].SameShape(ref)) {
      return Status::InvalidArgument(
          "optimizer state slot " + std::to_string(i) + " has shape [" +
          std::to_string(state.slots[i].rows()) + "," +
          std::to_string(state.slots[i].cols()) + "], parameter is [" +
          std::to_string(ref.rows()) + "," + std::to_string(ref.cols()) +
          "]");
    }
  }
  return Status::OK();
}

Sgd::Sgd(std::vector<Var> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (const Var& p : params_) {
      velocity_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
}

OptimizerState Sgd::SaveState() const {
  OptimizerState state;
  state.type = type();
  state.slots = velocity_;  // empty without momentum
  return state;
}

Status Sgd::LoadState(const OptimizerState& state) {
  FAIRGEN_RETURN_NOT_OK(ValidateState(state, velocity_.size()));
  velocity_ = state.slots;
  return Status::OK();
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Node& p = *params_[i];
    for (size_t j = 0; j < p.value.size(); ++j) {
      float g = p.grad.data()[j] + weight_decay_ * p.value.data()[j];
      if (momentum_ != 0.0f) {
        float& v = velocity_[i].data()[j];
        v = momentum_ * v + g;
        g = v;
      }
      p.value.data()[j] -= lr_ * g;
    }
  }
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

OptimizerState Adam::SaveState() const {
  OptimizerState state;
  state.type = type();
  state.step = t_;
  state.slots.reserve(m_.size() + v_.size());
  for (const Tensor& m : m_) state.slots.push_back(m);
  for (const Tensor& v : v_) state.slots.push_back(v);
  return state;
}

Status Adam::LoadState(const OptimizerState& state) {
  FAIRGEN_RETURN_NOT_OK(ValidateState(state, m_.size() + v_.size()));
  for (size_t i = 0; i < m_.size(); ++i) m_[i] = state.slots[i];
  for (size_t i = 0; i < v_.size(); ++i) v_[i] = state.slots[m_.size() + i];
  t_ = state.step;
  return Status::OK();
}

void Adam::Step() {
  ++t_;
  kernels::AdamStepParams step;
  step.lr = lr_;
  step.beta1 = beta1_;
  step.beta2 = beta2_;
  step.eps = eps_;
  step.weight_decay = weight_decay_;  // decoupled (AdamW)
  step.bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  step.bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Node& p = *params_[i];
    kernels::AdamUpdate(p.value.data(), p.grad.data(), m_[i].data(),
                        v_[i].data(), p.value.size(), step);
  }
}

}  // namespace fairgen::nn
