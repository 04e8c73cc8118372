#ifndef FAIRGEN_NN_DATA_PARALLEL_H_
#define FAIRGEN_NN_DATA_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/autograd.h"

namespace fairgen::nn {

/// \brief Data-parallel gradient accumulation for one minibatch, with a
/// summation order that does not depend on the thread count.
///
/// Shard 0 computes on the master parameters `params`; every further
/// shard s computes on its own replica `replicas[s - 1]`, a parameter list
/// in the same order and shapes as `params`. `Accumulate(n, threads, fn)`
/// splits the batch items [0, n) into contiguous shards of
/// ceil(n / num_shards) items — a layout that depends only on n and
/// num_shards — and runs the shards concurrently on the shared pool
/// (common/parallel.h). Shard 0 zeroes the master gradients; every other
/// shard copies the master values into its replica and zeroes the replica
/// gradients. Each shard then calls `fn(shard, item)` for its items in
/// ascending order; `fn` builds its tape on shard `shard`'s parameters
/// and calls Backward, so the shard's gradient g_s accumulates there.
/// Finally g_1, g_2, ... are added into the master gradients element by
/// element in shard order, leaving g_0 + g_1 + ... + g_{k-1}.
///
/// Because both the shard layout and the fold order are fixed, the master
/// gradients are bitwise identical at every thread count. With a single
/// shard the call is exactly the plain sequential minibatch loop: zero
/// the master gradients, then back-propagate item by item. Different
/// shard counts sum in different orders, so the shard count is part of
/// the training trajectory.
class DataParallelGrads {
 public:
  /// `num_shards()` is replicas.size() + 1. Checks that every replica
  /// mirrors `params` in count and shapes.
  DataParallelGrads(std::vector<Var> params,
                    std::vector<std::vector<Var>> replicas);

  DataParallelGrads(const DataParallelGrads&) = delete;
  DataParallelGrads& operator=(const DataParallelGrads&) = delete;

  size_t num_shards() const { return replicas_.size() + 1; }

  /// Runs one minibatch of `num_items` items (see class comment);
  /// `num_threads` follows the common/parallel convention (0 = process
  /// default, 1 = serial). `fn` runs concurrently for different shards and
  /// must only touch its shard's parameters and per-item output slots.
  /// With `num_items` = 0 the master gradients are zeroed.
  void Accumulate(size_t num_items, uint32_t num_threads,
                  const std::function<void(size_t shard, size_t item)>& fn);

 private:
  /// A reduction task: elements [begin, end) of parameter `param`.
  struct Segment {
    size_t param;
    size_t begin;
    size_t end;
  };

  std::vector<Var> params_;
  std::vector<std::vector<Var>> replicas_;
  std::vector<Segment> segments_;
};

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_DATA_PARALLEL_H_
