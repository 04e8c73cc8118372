#include "core/fairgen_config.h"

namespace fairgen {

std::string FairGenVariantName(FairGenVariant variant) {
  switch (variant) {
    case FairGenVariant::kFull:
      return "FairGen";
    case FairGenVariant::kRandom:
      return "FairGen-R";
    case FairGenVariant::kNoSelfPaced:
      return "FairGen-w/o-SPL";
    case FairGenVariant::kNoParity:
      return "FairGen-w/o-Parity";
  }
  return "FairGen-?";
}

Status FairGenConfig::Validate() const {
  if (walk_length < 2) {
    return Status::InvalidArgument("walk_length must be >= 2");
  }
  if (num_walks == 0) {
    return Status::InvalidArgument("num_walks must be positive");
  }
  if (batch_size == 0 || batch_iterations == 0) {
    return Status::InvalidArgument("batch size/iterations must be positive");
  }
  if (self_paced_cycles == 0) {
    return Status::InvalidArgument("self_paced_cycles must be positive");
  }
  if (general_ratio < 0.0 || general_ratio > 1.0) {
    return Status::InvalidArgument("general_ratio must be in [0, 1]");
  }
  if (alpha < 0.0f || beta < 0.0f || gamma < 0.0f) {
    return Status::InvalidArgument("alpha/beta/gamma must be non-negative");
  }
  if (lambda <= 0.0f) {
    return Status::InvalidArgument("lambda must be positive");
  }
  if (lambda_growth < 1.0f) {
    return Status::InvalidArgument("lambda_growth must be >= 1");
  }
  if (embedding_dim == 0 || embedding_dim % num_heads != 0) {
    return Status::InvalidArgument(
        "embedding_dim must be positive and divisible by num_heads");
  }
  if (generator_batch == 0) {
    return Status::InvalidArgument("generator_batch must be positive");
  }
  if (generator_lr <= 0.0f || discriminator_lr <= 0.0f) {
    return Status::InvalidArgument("learning rates must be positive");
  }
  if (gen_transition_multiplier <= 0.0) {
    return Status::InvalidArgument(
        "gen_transition_multiplier must be positive");
  }
  if (temperature <= 0.0f) {
    return Status::InvalidArgument("temperature must be positive");
  }
  if (checkpoint.every_cycles == 0) {
    return Status::InvalidArgument("checkpoint.every_cycles must be >= 1");
  }
  if (checkpoint.retain == 0) {
    return Status::InvalidArgument("checkpoint.retain must be >= 1");
  }
  if (checkpoint.resume && checkpoint.dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint.resume requires checkpoint.dir");
  }
  return Status::OK();
}

}  // namespace fairgen
