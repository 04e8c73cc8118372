#include "nn/lstm.h"

#include <cmath>

#include "common/logging.h"
#include "nn/categorical.h"
#include "nn/loss.h"

namespace fairgen::nn {

LstmCell::LstmCell(size_t input_dim, size_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim) {
  float bx = std::sqrt(6.0f / static_cast<float>(input_dim + 4 * hidden_dim));
  float bh = std::sqrt(6.0f / static_cast<float>(hidden_dim + 4 * hidden_dim));
  wx_ = MakeParameter(Tensor::RandUniform(input_dim, 4 * hidden_dim, bx, rng));
  wh_ = MakeParameter(
      Tensor::RandUniform(hidden_dim, 4 * hidden_dim, bh, rng));
  // Forget-gate bias initialized to 1 (standard trick for gradient flow).
  Tensor bias(1, 4 * hidden_dim);
  for (size_t i = hidden_dim; i < 2 * hidden_dim; ++i) bias.at(0, i) = 1.0f;
  b_ = MakeParameter(std::move(bias));
}

std::pair<Var, Var> LstmCell::Step(const Var& x, const Var& h,
                                   const Var& c) const {
  Var gates =
      AddRowBroadcast(Add(MatMulOp(x, wx_), MatMulOp(h, wh_)), b_);
  Var i = SigmoidOp(SliceCols(gates, 0, hidden_dim_));
  Var f = SigmoidOp(SliceCols(gates, hidden_dim_, hidden_dim_));
  Var g = TanhOp(SliceCols(gates, 2 * hidden_dim_, hidden_dim_));
  Var o = SigmoidOp(SliceCols(gates, 3 * hidden_dim_, hidden_dim_));
  Var c_next = Add(Mul(f, c), Mul(i, g));
  Var h_next = Mul(o, TanhOp(c_next));
  return {h_next, c_next};
}

Var LstmCell::ZeroState() const {
  return MakeConstant(Tensor(1, hidden_dim_));
}

std::vector<Var> LstmCell::Parameters() const { return {wx_, wh_, b_}; }

LstmLM::LstmLM(const LstmLMConfig& config, Rng& rng)
    : config_(config),
      tok_(config.vocab_size, config.dim, rng),
      cell_(config.dim, config.hidden_dim, rng),
      out_(config.hidden_dim, config.vocab_size, rng) {
  FAIRGEN_CHECK(config.vocab_size > 0);
}

std::vector<Var> LstmLM::RunStates(const std::vector<uint32_t>& walk) const {
  Var h = cell_.ZeroState();
  Var c = cell_.ZeroState();
  std::vector<Var> states;
  states.reserve(walk.size());
  for (uint32_t token : walk) {
    Var x = tok_.Forward({token});
    std::tie(h, c) = cell_.Step(x, h, c);
    states.push_back(h);
  }
  return states;
}

Var LstmLM::WalkNll(const std::vector<uint32_t>& walk) const {
  FAIRGEN_CHECK(walk.size() >= 2);
  std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
  std::vector<Var> states = RunStates(prefix);
  // Average the per-step NLLs (scalar chain keeps ConcatRows out of the op
  // set at negligible cost for T <= max walk length).
  Var total;
  for (size_t t = 0; t < states.size(); ++t) {
    Var logits = out_.Forward(states[t]);  // [1, vocab]
    Var nll = SequenceNll(logits, {walk[t + 1]});
    total = (t == 0) ? nll : Add(total, nll);
  }
  return Scale(total, 1.0f / static_cast<float>(states.size()));
}

uint32_t LstmLM::SampleNext(const std::vector<uint32_t>& prefix, Rng& rng,
                            float temperature) const {
  FAIRGEN_CHECK(!prefix.empty());
  FAIRGEN_CHECK(temperature > 0.0f);
  // Pure inference: no tape needed.
  NoGradScope no_grad;
  std::vector<Var> states = RunStates(prefix);
  Var logits = out_.Forward(states.back());
  return SampleLogitsRow(logits->value.row(0), config_.vocab_size,
                         temperature, rng);
}

std::vector<uint32_t> LstmLM::SampleWalk(uint32_t start, uint32_t length,
                                         Rng& rng, float temperature) const {
  FAIRGEN_CHECK(start < config_.vocab_size);
  FAIRGEN_CHECK(temperature > 0.0f);
  // Stateful decoding: O(T) cell steps per walk instead of re-running the
  // prefix for every token. Inference-only, so the tape is disabled.
  NoGradScope no_grad;
  std::vector<uint32_t> walk{start};
  Var h = cell_.ZeroState();
  Var c = cell_.ZeroState();
  while (walk.size() < length) {
    Var x = tok_.Forward({walk.back()});
    std::tie(h, c) = cell_.Step(x, h, c);
    Var logits = out_.Forward(h);
    walk.push_back(SampleLogitsRow(logits->value.row(0), config_.vocab_size,
                                   temperature, rng));
  }
  return walk;
}

std::vector<Var> LstmLM::Parameters() const {
  std::vector<Var> params = tok_.Parameters();
  for (const Var& p : cell_.Parameters()) params.push_back(p);
  for (const Var& p : out_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace fairgen::nn
