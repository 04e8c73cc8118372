#ifndef FAIRGEN_TESTS_TESTING_TOP_M_ORACLE_H_
#define FAIRGEN_TESTS_TESTING_TOP_M_ORACLE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"

namespace fairgen {

/// The m highest-scoring of `scored` (score descending, ties by ascending
/// (u, v), i.e. by edge key) as a graph on `num_nodes` nodes — plain top-m
/// thresholding, computed without the assembler. A release with both
/// assembly criteria off must equal it.
inline Graph TopMGraph(std::vector<std::pair<Edge, double>> scored,
                       uint32_t num_nodes, uint64_t m) {
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    if (a.first.u != b.first.u) return a.first.u < b.first.u;
    return a.first.v < b.first.v;
  });
  std::vector<Edge> edges;
  for (size_t i = 0; i < scored.size() && i < m; ++i) {
    edges.push_back(scored[i].first);
  }
  auto graph = Graph::FromEdges(num_nodes, edges);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return graph.ok() ? graph.MoveValueUnsafe() : Graph::Empty(num_nodes);
}

}  // namespace fairgen

#endif  // FAIRGEN_TESTS_TESTING_TOP_M_ORACLE_H_
