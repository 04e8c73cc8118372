#ifndef FAIRGEN_STATS_DISCREPANCY_H_
#define FAIRGEN_STATS_DISCREPANCY_H_

#include <array>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "stats/metrics.h"

namespace fairgen {

/// \brief Relative discrepancy |f(G) − f(G̃)| / |f(G)| of a single metric
/// (Eq. 15). When f(G) == 0 the ratio has no denominator: a match scores
/// 0 and any other f(G̃) scores 1, the relative error of losing a metric
/// entirely, so one zero-valued metric of the input cannot swamp the
/// six-metric mean (a triangle count of 43 would otherwise read 43).
double MetricDiscrepancy(double original, double generated);

/// \brief Overall discrepancy R(G, G̃, f_m) across the six Table-II
/// metrics (Eq. 15), in MetricNames() order. Both graphs must have the same
/// number of nodes.
Result<std::array<double, kNumGraphMetrics>> OverallDiscrepancy(
    const Graph& original, const Graph& generated);

/// \brief Protected-group discrepancy R+(G, G̃, S+, f_m) (Eq. 16): the
/// metric discrepancies between the subgraphs induced by the protected
/// vertices `protected_set` in the original and generated graphs.
Result<std::array<double, kNumGraphMetrics>> ProtectedDiscrepancy(
    const Graph& original, const Graph& generated,
    const std::vector<NodeId>& protected_set);

/// \brief Mean of the per-metric discrepancies (a single-number summary
/// used for ranking models in the harness; the paper reports per-metric
/// bars).
double MeanDiscrepancy(const std::array<double, kNumGraphMetrics>& values);

}  // namespace fairgen

#endif  // FAIRGEN_STATS_DISCREPANCY_H_
