#ifndef FAIRGEN_GRAPH_TRIANGLES_H_
#define FAIRGEN_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace fairgen {

/// \brief Counts the triangles of `graph` (sets {u,v,w} with all three
/// edges present), the paper's Triangle Count metric (Table II).
///
/// Orients every edge towards the higher (degree, id) rank and intersects
/// the sorted out-lists, so each triangle is counted once as an exact
/// integer: O(m^{3/2}) worst case, with no out-list longer than √(2m).
/// Builds an oriented copy of the adjacency (m node ids) for the count.
uint64_t CountTriangles(const Graph& graph);

/// \brief Per-node triangle participation counts (each triangle contributes
/// 1 to each of its three corners). Sum over nodes equals 3 * triangles.
std::vector<uint64_t> PerNodeTriangles(const Graph& graph);

}  // namespace fairgen

#endif  // FAIRGEN_GRAPH_TRIANGLES_H_
