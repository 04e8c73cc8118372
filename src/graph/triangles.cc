#include "graph/triangles.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/parallel.h"

namespace fairgen {

namespace {

// Nodes per parallel chunk for the triangle kernels. Counts are integers,
// so any chunking is exact; a fixed grain keeps scheduling cheap on small
// graphs while still splitting large ones.
constexpr size_t kTriangleGrain = 256;

// Intersects two sorted ranges, invoking `fn` on each common element.
template <typename Fn>
void ForEachCommon(std::span<const NodeId> a, std::span<const NodeId> b,
                   Fn&& fn) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      fn(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

uint64_t CountTriangles(const Graph& graph) {
  // Orient each edge from its lower- to its higher-ranked end, ranking
  // nodes by (degree, id). A triangle's lowest-ranked corner v then sees
  // the other two, w and x, in its out-list, and x is also in w's: the
  // triangle is counted once, at v via w, by intersecting out-lists. No
  // out-list is longer than √(2m), so hubs stop dominating the cost, and
  // each list stays sorted by id as a filtered copy of a sorted list.
  const size_t n = graph.num_nodes();
  auto ranks_below = [&graph](NodeId v, NodeId w) {
    const uint32_t dv = graph.Degree(v);
    const uint32_t dw = graph.Degree(w);
    return dv != dw ? dv < dw : v < w;
  };
  std::vector<uint64_t> offsets(n + 1, 0);
  ParallelFor(size_t{0}, n, kTriangleGrain, [&](size_t i) {
    const NodeId v = static_cast<NodeId>(i);
    uint64_t out_degree = 0;
    for (NodeId w : graph.Neighbors(v)) {
      if (ranks_below(v, w)) ++out_degree;
    }
    offsets[i + 1] = out_degree;
  });
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<NodeId> out(offsets[n]);
  ParallelFor(size_t{0}, n, kTriangleGrain, [&](size_t i) {
    const NodeId v = static_cast<NodeId>(i);
    uint64_t slot = offsets[i];
    for (NodeId w : graph.Neighbors(v)) {
      if (ranks_below(v, w)) out[slot++] = w;
    }
  });
  auto out_list = [&](NodeId v) {
    return std::span<const NodeId>(out.data() + offsets[v],
                                   out.data() + offsets[v + 1]);
  };
  // Chunks of nodes reduce independently; integer partial sums combine
  // exactly.
  return ParallelReduce(
      size_t{0}, n, kTriangleGrain, uint64_t{0},
      [&out_list](size_t lo, size_t hi, size_t /*chunk*/) {
        uint64_t count = 0;
        for (NodeId v = static_cast<NodeId>(lo); v < hi; ++v) {
          const std::span<const NodeId> ov = out_list(v);
          for (NodeId w : ov) {
            ForEachCommon(ov, out_list(w), [&count](NodeId) { ++count; });
          }
        }
        return count;
      },
      [](uint64_t acc, uint64_t partial) { return acc + partial; });
}

std::vector<uint64_t> PerNodeTriangles(const Graph& graph) {
  // tri[u] = closed wedges at u: every neighbor pair (v, w) of u that is
  // itself an edge. Counting from u's own adjacency list (each triangle at
  // u is seen once via v and once via w, hence the /2) means each node
  // writes only its own slot — embarrassingly parallel, no merge step —
  // unlike the edge-oriented formulation, which scatters +1 to all three
  // corners.
  std::vector<uint64_t> tri(graph.num_nodes(), 0);
  ParallelFor(size_t{0}, graph.num_nodes(), kTriangleGrain, [&](size_t n) {
    NodeId u = static_cast<NodeId>(n);
    auto nu = graph.Neighbors(u);
    uint64_t closed = 0;
    for (NodeId v : nu) {
      ForEachCommon(nu, graph.Neighbors(v), [&](NodeId w) {
        if (w != u && w != v) ++closed;
      });
    }
    tri[u] = closed / 2;
  });
  return tri;
}

}  // namespace fairgen
