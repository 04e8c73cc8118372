#include "stats/discrepancy.h"

#include <cmath>

#include "graph/subgraph.h"

namespace fairgen {

double MetricDiscrepancy(double original, double generated) {
  if (original == 0.0) return generated == 0.0 ? 0.0 : 1.0;
  return std::abs((original - generated) / original);
}

namespace {

std::array<double, kNumGraphMetrics> Discrepancies(const GraphMetrics& a,
                                                   const GraphMetrics& b) {
  auto va = a.ToArray();
  auto vb = b.ToArray();
  std::array<double, kNumGraphMetrics> out{};
  for (size_t i = 0; i < kNumGraphMetrics; ++i) {
    out[i] = MetricDiscrepancy(va[i], vb[i]);
  }
  return out;
}

}  // namespace

Result<std::array<double, kNumGraphMetrics>> OverallDiscrepancy(
    const Graph& original, const Graph& generated) {
  if (original.num_nodes() != generated.num_nodes()) {
    return Status::InvalidArgument(
        "discrepancy requires graphs over the same vertex set");
  }
  return Discrepancies(ComputeMetrics(original), ComputeMetrics(generated));
}

Result<std::array<double, kNumGraphMetrics>> ProtectedDiscrepancy(
    const Graph& original, const Graph& generated,
    const std::vector<NodeId>& protected_set) {
  if (original.num_nodes() != generated.num_nodes()) {
    return Status::InvalidArgument(
        "discrepancy requires graphs over the same vertex set");
  }
  if (protected_set.empty()) {
    return Status::InvalidArgument("protected set is empty");
  }
  FAIRGEN_ASSIGN_OR_RETURN(Subgraph sub_orig,
                           InducedSubgraph(original, protected_set));
  FAIRGEN_ASSIGN_OR_RETURN(Subgraph sub_gen,
                           InducedSubgraph(generated, protected_set));
  return Discrepancies(ComputeMetrics(sub_orig.graph),
                       ComputeMetrics(sub_gen.graph));
}

double MeanDiscrepancy(const std::array<double, kNumGraphMetrics>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(kNumGraphMetrics);
}

}  // namespace fairgen
