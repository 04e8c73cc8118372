#include "generators/taggen.h"

#include <algorithm>
#include <memory>

namespace fairgen {

TagGenGenerator::TagGenGenerator(TagGenConfig config)
    : WalkLMGenerator<nn::TransformerLM>(config.train),
      taggen_config_(config) {}

std::unique_ptr<nn::TransformerLM> TagGenGenerator::BuildModel(
    const Graph& graph, Rng& rng) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = graph.num_nodes();
  cfg.dim = taggen_config_.dim;
  cfg.num_heads = taggen_config_.num_heads;
  cfg.num_layers = taggen_config_.num_layers;
  cfg.ffn_dim = taggen_config_.ffn_dim;
  cfg.max_len = std::max<size_t>(32, config_.walk_length + 1);
  return std::make_unique<nn::TransformerLM>(cfg, rng);
}

WalkSampler TagGenGenerator::NewChunkSampler() const {
  auto decoder = std::make_shared<nn::TransformerDecoder>(*model_);
  return [this, decoder](Rng& worker_rng) {
    uint32_t start = start_table_->Sample(worker_rng);
    return decoder->SampleWalk(start, config_.walk_length, worker_rng,
                               config_.temperature);
  };
}

}  // namespace fairgen
