#include "eval/model_zoo.h"

#include <string>

namespace fairgen {

namespace {

// `name` with every character outside [A-Za-z0-9._-] mapped to '-', so a
// variant name such as "FairGen-w/o-SPL" names one directory, not two.
std::string PathSafe(std::string name) {
  for (char& c : name) {
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '-';
  }
  return name;
}

}  // namespace

Result<std::unique_ptr<FairGenTrainer>> MakeFairGen(
    const LabeledGraph& data, const ZooConfig& config,
    FairGenVariant variant, uint64_t seed) {
  FairGenConfig fg = config.fairgen;
  fg.variant = variant;
  // Fault tolerance: each dataset/variant fit gets its own checkpoint
  // subdirectory, directly under the checkpoint dir, so zoo runs never
  // mix checkpoint files.
  if (!fg.checkpoint.dir.empty()) {
    fg.checkpoint.dir +=
        "/" + PathSafe(data.name + "-" + FairGenVariantName(variant));
  }
  auto trainer = std::make_unique<FairGenTrainer>(fg);
  if (data.has_labels()) {
    Rng rng(seed ^ 0x5eedf00dULL);
    std::vector<int32_t> few =
        FewShotLabels(data, config.labels_per_class, rng);
    FAIRGEN_RETURN_NOT_OK(trainer->SetSupervision(few, data.protected_set,
                                                  data.num_classes));
  } else if (data.has_protected_group()) {
    FAIRGEN_RETURN_NOT_OK(trainer->SetSupervision(
        std::vector<int32_t>(data.graph.num_nodes(), kUnlabeled),
        data.protected_set, 0));
  }
  return trainer;
}

Result<std::vector<std::unique_ptr<GraphGenerator>>> MakeModelZoo(
    const LabeledGraph& data, const ZooConfig& config, uint64_t seed) {
  std::vector<std::unique_ptr<GraphGenerator>> zoo;

  {
    FAIRGEN_ASSIGN_OR_RETURN(
        auto fairgen,
        MakeFairGen(data, config, FairGenVariant::kFull, seed));
    zoo.push_back(std::move(fairgen));
  }
  if (config.include_ablations) {
    for (FairGenVariant variant :
         {FairGenVariant::kRandom, FairGenVariant::kNoSelfPaced,
          FairGenVariant::kNoParity}) {
      FAIRGEN_ASSIGN_OR_RETURN(auto trainer,
                               MakeFairGen(data, config, variant, seed));
      zoo.push_back(std::move(trainer));
    }
  }

  zoo.push_back(std::make_unique<ErdosRenyiGenerator>());
  zoo.push_back(std::make_unique<BarabasiAlbertGenerator>());

  if (config.include_deep) {
    zoo.push_back(std::make_unique<GaeGenerator>(config.gae));
    NetGanConfig netgan;
    netgan.train = config.walk_budget;
    zoo.push_back(std::make_unique<NetGanGenerator>(netgan));
    TagGenConfig taggen;
    taggen.train = config.walk_budget;
    zoo.push_back(std::make_unique<TagGenGenerator>(taggen));
  }
  return zoo;
}

}  // namespace fairgen
