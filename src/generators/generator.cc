#include "generators/generator.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"

namespace fairgen {

Result<std::vector<std::pair<Edge, double>>> GraphGenerator::ScoreEdges(
    Rng&) {
  return Status::NotImplemented(name() + " does not score candidate edges");
}

EdgeScoreAccumulator::EdgeScoreAccumulator(uint32_t num_nodes)
    : num_nodes_(num_nodes) {
  FAIRGEN_CHECK(num_nodes > 0);
}

void EdgeScoreAccumulator::AddWalk(const Walk& walk) {
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    if (walk[i] != walk[i + 1]) {
      AddEdge(walk[i], walk[i + 1]);
    }
  }
}

void EdgeScoreAccumulator::AddEdge(NodeId u, NodeId v, double count) {
  FAIRGEN_CHECK(u < num_nodes_ && v < num_nodes_);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  entries_.push_back({static_cast<uint64_t>(u) * num_nodes_ + v, count});
  compact_ = false;
  total_score_ += count;
}

namespace {

// Stable-sorts `entries` by key and folds each key's run into one entry,
// summing from 0.0 in the run's (insertion) order.
template <typename Entry>
void CompactEntries(std::vector<Entry>& entries) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  size_t out = 0;
  for (size_t i = 0; i < entries.size();) {
    const uint64_t key = entries[i].key;
    double sum = 0.0;
    for (; i < entries.size() && entries[i].key == key; ++i) {
      sum += entries[i].score;
    }
    entries[out++] = {key, sum};
  }
  entries.resize(out);
}

}  // namespace

void EdgeScoreAccumulator::Compact() {
  if (compact_) return;
  CompactEntries(entries_);
  compact_ = true;
}

const std::vector<EdgeScoreAccumulator::Entry>&
EdgeScoreAccumulator::CompactScores(std::vector<Entry>* scratch) const {
  if (compact_) return entries_;
  *scratch = entries_;
  CompactEntries(*scratch);
  return *scratch;
}

EdgeScoreAccumulator EdgeScoreAccumulator::MergeRuns(
    std::vector<EdgeScoreAccumulator> runs) {
  FAIRGEN_CHECK(!runs.empty());
  EdgeScoreAccumulator merged(runs.front().num_nodes_);
  size_t total_entries = 0;
  for (EdgeScoreAccumulator& run : runs) {
    FAIRGEN_CHECK(run.num_nodes_ == merged.num_nodes_);
    run.Compact();
    total_entries += run.entries_.size();
    merged.total_score_ += run.total_score_;
  }
  merged.entries_.reserve(total_entries);
  // Min-heap of (next key, run): equal keys pop in run order, so each
  // key's sum adds its run scores in run order.
  using Head = std::pair<uint64_t, size_t>;
  std::vector<Head> heap;
  std::vector<size_t> cursor(runs.size(), 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].entries_.empty()) heap.push_back({runs[r].entries_[0].key, r});
  }
  const auto later = std::greater<Head>();
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [key, r] = heap.back();
    const std::vector<Entry>& run = runs[r].entries_;
    if (merged.entries_.empty() || merged.entries_.back().key != key) {
      merged.entries_.push_back({key, 0.0});
    }
    merged.entries_.back().score += run[cursor[r]].score;
    if (++cursor[r] < run.size()) {
      heap.back() = {run[cursor[r]].key, r};
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

size_t EdgeScoreAccumulator::num_scored_edges() const {
  std::vector<Entry> scratch;
  return CompactScores(&scratch).size();
}

std::vector<std::pair<Edge, double>> EdgeScoreAccumulator::ScoredEdges()
    const {
  std::vector<Entry> scratch;
  const std::vector<Entry>& scores = CompactScores(&scratch);
  std::vector<std::pair<Edge, double>> out;
  out.reserve(scores.size());
  for (const auto& [key, score] : scores) {
    NodeId u = static_cast<NodeId>(key / num_nodes_);
    NodeId v = static_cast<NodeId>(key % num_nodes_);
    out.push_back({{u, v}, score});
  }
  return out;
}

namespace {

// Walk sampling always decomposes into this many budget chunks, regardless
// of the thread count — that (plus the ordered merge) is what makes the
// accumulator bit-identical across `num_threads` settings. 64 chunks keep
// every pool size busy while the per-chunk RNG-split cost stays trivial.
constexpr uint64_t kWalkBudgetChunks = 64;

}  // namespace

EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const WalkSampler& sample_walk) {
  return AccumulateWalkScores(
      num_nodes, target_transitions, num_threads, rng,
      std::function<WalkSampler()>([&sample_walk] { return sample_walk; }));
}

EdgeScoreAccumulator AccumulateWalkScores(
    uint32_t num_nodes, uint64_t target_transitions, uint32_t num_threads,
    Rng& rng, const std::function<WalkSampler()>& new_sampler) {
  trace::ScopedSpan span("generate.accumulate_walks",
                         trace::Category::kGenerate);
  static metrics::Counter& walk_counter =
      metrics::MetricsRegistry::Global().GetCounter("generate.walks");
  static metrics::Counter& transition_counter =
      metrics::MetricsRegistry::Global().GetCounter("generate.transitions");
  static metrics::Counter& degenerate_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "generate.degenerate_walks");
  Timer timer;
  const uint64_t chunks = std::min<uint64_t>(
      kWalkBudgetChunks, std::max<uint64_t>(uint64_t{1}, target_transitions));
  // Exact budget split: chunk c gets floor(target/chunks) transitions plus
  // one unit of the remainder, so the chunks sum to the target exactly
  // instead of overshooting by up to `chunks - 1` rounded-up shares.
  const uint64_t base_budget = target_transitions / chunks;
  const uint64_t remainder = target_transitions % chunks;

  std::vector<Rng> streams = SplitRngs(rng, chunks);
  std::vector<EdgeScoreAccumulator> runs(chunks,
                                         EdgeScoreAccumulator(num_nodes));
  // Call-local throughput totals (the registry counters are process-wide
  // and monotonic; the gauges below report this call's rates).
  std::atomic<uint64_t> call_walks{0};
  std::atomic<uint64_t> call_transitions{0};
  ParallelFor(
      size_t{0}, chunks, size_t{1},
      [&](size_t c) {
        const uint64_t budget = base_budget + (c < remainder ? 1 : 0);
        Rng& worker_rng = streams[c];
        EdgeScoreAccumulator& acc = runs[c];
        const WalkSampler sample_walk = new_sampler();
        uint64_t transitions = 0;
        uint64_t walks = 0;
        uint64_t degenerate = 0;
        // A walk adds at most one observation per transition, so only the
        // last walk, which may overshoot the budget, can need more room;
        // it grows the run to exactly its size.
        acc.Reserve(budget);
        while (transitions < budget) {
          Walk walk = sample_walk(worker_rng);
          // A degenerate single-node walk still consumes one unit so the
          // loop always makes forward progress.
          const uint64_t steps = walk.size() > 1 ? walk.size() - 1 : 1;
          acc.Reserve(transitions + steps);
          acc.AddWalk(walk);
          ++walks;
          if (walk.size() <= 1) ++degenerate;
          transitions += steps;
        }
        acc.Compact();
        // One atomic add per chunk; counts sum exactly under concurrency.
        walk_counter.Increment(walks);
        transition_counter.Increment(transitions);
        if (degenerate > 0) degenerate_counter.Increment(degenerate);
        call_walks.fetch_add(walks, std::memory_order_relaxed);
        call_transitions.fetch_add(transitions, std::memory_order_relaxed);
      },
      num_threads);

  EdgeScoreAccumulator acc = EdgeScoreAccumulator::MergeRuns(std::move(runs));
  const double elapsed = timer.ElapsedSeconds();
  if (elapsed > 0.0) {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    registry.GetGauge("generate.walks_per_sec")
        .Set(static_cast<double>(call_walks.load()) / elapsed);
    registry.GetGauge("generate.transitions_per_sec")
        .Set(static_cast<double>(call_transitions.load()) / elapsed);
  }
  static metrics::Gauge& accumulator_bytes_gauge =
      metrics::MetricsRegistry::Global().GetGauge(
          "generate.accumulator_bytes");
  accumulator_bytes_gauge.Set(static_cast<double>(acc.MemoryBytes()));
  return acc;
}

}  // namespace fairgen
