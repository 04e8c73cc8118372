#include "nn/data_parallel.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn {

namespace {

// Elements per reduction task: large enough to amortize scheduling, small
// enough that the embedding table splits across the pool.
constexpr size_t kReduceGrain = 16384;

}  // namespace

DataParallelGrads::DataParallelGrads(std::vector<Var> params,
                                     std::vector<std::vector<Var>> replicas)
    : params_(std::move(params)), replicas_(std::move(replicas)) {
  for (const std::vector<Var>& replica : replicas_) {
    FAIRGEN_CHECK(replica.size() == params_.size())
        << "replica has " << replica.size() << " parameters, master has "
        << params_.size();
    for (size_t i = 0; i < params_.size(); ++i) {
      FAIRGEN_CHECK(replica[i] != params_[i] && replica[i]->requires_grad &&
                    replica[i]->value.SameShape(params_[i]->value))
          << "replica parameter " << i << " does not mirror the master";
      replica[i]->EnsureGrad();
    }
  }
  for (const Var& p : params_) p->EnsureGrad();
  for (size_t i = 0; i < params_.size(); ++i) {
    const size_t size = params_[i]->grad.size();
    for (size_t b = 0; b < size; b += kReduceGrain) {
      segments_.push_back({i, b, std::min(size, b + kReduceGrain)});
    }
  }
}

void DataParallelGrads::Accumulate(
    size_t num_items, uint32_t num_threads,
    const std::function<void(size_t shard, size_t item)>& fn) {
  if (num_items == 0) {
    ZeroGrad(params_);
    return;
  }
  const size_t grain = (num_items + num_shards() - 1) / num_shards();
  const size_t shards = ParallelNumChunks(0, num_items, grain);
  ParallelForChunks(
      0, num_items, grain,
      [&](size_t lo, size_t hi, size_t shard) {
        if (shard == 0) {
          ZeroGrad(params_);
        } else {
          for (size_t i = 0; i < params_.size(); ++i) {
            const Tensor& master = params_[i]->value;
            Node& replica = *replicas_[shard - 1][i];
            std::copy(master.data(), master.data() + master.size(),
                      replica.value.data());
            replica.grad.Zero();
          }
        }
        for (size_t item = lo; item < hi; ++item) fn(shard, item);
      },
      num_threads);
  if (shards == 1) return;

  // Fixed-order reduction: the master holds g_0; add g_1, g_2, ... Each
  // element is summed in shard order whichever task handles it.
  ParallelFor(
      0, segments_.size(), 1,
      [&](size_t k) {
        const Segment& seg = segments_[k];
        float* out = params_[seg.param]->grad.data();
        for (size_t s = 1; s < shards; ++s) {
          kernels::Add(out + seg.begin,
                       replicas_[s - 1][seg.param]->grad.data() + seg.begin,
                       seg.end - seg.begin);
        }
      },
      num_threads);
}

}  // namespace fairgen::nn
