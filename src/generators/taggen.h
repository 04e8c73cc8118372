#ifndef FAIRGEN_GENERATORS_TAGGEN_H_
#define FAIRGEN_GENERATORS_TAGGEN_H_

#include <memory>

#include "generators/walk_lm.h"
#include "nn/transformer.h"

namespace fairgen {

/// \brief Model-size knobs for the TagGen baseline.
struct TagGenConfig {
  WalkLMTrainConfig train;
  size_t dim = 32;
  size_t num_heads = 4;
  size_t num_layers = 1;
  size_t ffn_dim = 64;
};

/// \brief TagGen baseline (Zhou et al., KDD'20): a transformer model of
/// random walks, assembled by edge-count thresholding.
///
/// Architecturally identical to FairGen's M1 generator but trained without
/// label information, fairness constraint, or self-paced learning — which
/// makes the FairGen-vs-TagGen comparison a clean ablation of M2/M3.
class TagGenGenerator : public WalkLMGenerator<nn::TransformerLM> {
 public:
  explicit TagGenGenerator(TagGenConfig config = {});

  std::string name() const override { return "TagGen"; }

 protected:
  std::unique_ptr<nn::TransformerLM> BuildModel(const Graph& graph,
                                                Rng& rng) override;

  /// One KV decoder per budget chunk instead of one per walk: building a
  /// decoder transposes the whole embedding table. Same walks as the
  /// per-walk sampler.
  WalkSampler NewChunkSampler() const override;

 private:
  TagGenConfig taggen_config_;
};

}  // namespace fairgen

#endif  // FAIRGEN_GENERATORS_TAGGEN_H_
