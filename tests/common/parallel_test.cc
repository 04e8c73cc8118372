#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace fairgen {
namespace {

TEST(ParallelForTest, EmptyRangeInvokesNothing) {
  std::atomic<int> calls{0};
  ParallelFor(size_t{0}, size_t{0}, 4, [&](size_t) { ++calls; });
  ParallelFor(size_t{5}, size_t{5}, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(size_t{0}, kN, 7, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  std::atomic<int> chunks{0};
  std::atomic<size_t> covered{0};
  ParallelForChunks(size_t{3}, size_t{10}, 100,
                    [&](size_t lo, size_t hi, size_t chunk) {
                      ++chunks;
                      covered += hi - lo;
                      EXPECT_EQ(lo, 3u);
                      EXPECT_EQ(hi, 10u);
                      EXPECT_EQ(chunk, 0u);
                    });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 7u);
}

TEST(ParallelForTest, ZeroGrainBehavesAsGrainOne) {
  EXPECT_EQ(ParallelNumChunks(0, 5, 0), 5u);
  std::atomic<int> calls{0};
  ParallelFor(size_t{0}, size_t{5}, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelForTest, ChunkLayoutIsThreadCountIndependent) {
  auto layout = [](uint32_t threads) {
    std::vector<std::pair<size_t, size_t>> chunks(
        ParallelNumChunks(0, 103, 10));
    ParallelForChunks(
        size_t{0}, size_t{103}, 10,
        [&](size_t lo, size_t hi, size_t c) { chunks[c] = {lo, hi}; },
        threads);
    return chunks;
  };
  auto serial = layout(1);
  EXPECT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.front(), (std::pair<size_t, size_t>{0, 10}));
  EXPECT_EQ(serial.back(), (std::pair<size_t, size_t>{100, 103}));
  EXPECT_EQ(layout(2), serial);
  EXPECT_EQ(layout(4), serial);
  EXPECT_EQ(layout(16), serial);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<uint64_t>> sums(kOuter);
  ParallelFor(size_t{0}, kOuter, 1, [&](size_t o) {
    EXPECT_TRUE(InParallelRegion() || ThreadPool::Global().max_parallelism() == 1);
    // The nested region must execute (serially) rather than deadlock.
    ParallelFor(size_t{0}, kInner, 4, [&](size_t i) { sums[o] += i; });
  });
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o].load(), kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPoolTest, SingleTaskRunsOutsideAnyParallelRegion) {
  // A lone task runs inline on the caller without entering a parallel
  // region, so a pool call it makes still fans out instead of running
  // serially (the trainer keeps its generator stage alone in its DAG wave
  // for this reason).
  bool outer_in_region = true;
  std::atomic<size_t> nested_in_region{0};
  ThreadPool::Global().Run(1, 4, [&](size_t) {
    outer_in_region = InParallelRegion();
    ParallelFor(
        size_t{0}, size_t{8}, 1,
        [&](size_t) {
          if (InParallelRegion()) ++nested_in_region;
        },
        4);
  });
  EXPECT_FALSE(outer_in_region);
  EXPECT_EQ(nested_in_region.load(), 8u);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  double r = ParallelReduce(
      size_t{4}, size_t{4}, 8, 42.0,
      [](size_t, size_t, size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, 42.0);
}

TEST(ParallelReduceTest, OrderedSumMatchesSerial) {
  std::vector<double> values(2000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto sum_at = [&](uint32_t threads) {
    return ParallelReduce(
        size_t{0}, values.size(), 64, 0.0,
        [&](size_t lo, size_t hi, size_t) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  // Chunked reduction is bit-identical across thread counts (the FAROS
  // requirement the whole runtime is built around).
  double serial = sum_at(1);
  EXPECT_EQ(sum_at(2), serial);
  EXPECT_EQ(sum_at(4), serial);
  EXPECT_EQ(sum_at(16), serial);
}

TEST(ParallelReduceTest, CombineSeesChunksInOrder) {
  std::vector<size_t> combine_order;
  ParallelReduce(
      size_t{0}, size_t{100}, 10, size_t{0},
      [](size_t, size_t, size_t chunk) { return chunk; },
      [&](size_t acc, size_t chunk) {
        combine_order.push_back(chunk);
        return acc;
      },
      4);
  ASSERT_EQ(combine_order.size(), 10u);
  for (size_t c = 0; c < combine_order.size(); ++c) {
    EXPECT_EQ(combine_order[c], c);
  }
}

TEST(ThreadPoolTest, RunExecutesAllTasks) {
  std::atomic<uint64_t> sum{0};
  ThreadPool::Global().Run(257, 4, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), uint64_t{257} * 256 / 2);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotInterfere) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    ThreadPool::Global().Run(20, 8, [&](size_t) { ++calls; });
    ASSERT_EQ(calls.load(), 20) << "round " << round;
  }
}

TEST(SplitRngsTest, StreamsAreDeterministicAndIndependent) {
  Rng a(123);
  Rng b(123);
  std::vector<Rng> sa = SplitRngs(a, 4);
  std::vector<Rng> sb = SplitRngs(b, 4);
  ASSERT_EQ(sa.size(), 4u);
  for (size_t i = 0; i < sa.size(); ++i) {
    for (int draw = 0; draw < 16; ++draw) {
      EXPECT_EQ(sa[i].NextU32(), sb[i].NextU32());
    }
  }
  // Distinct streams should not collide on a short prefix.
  Rng c(123);
  std::vector<Rng> sc = SplitRngs(c, 2);
  bool differ = false;
  for (int draw = 0; draw < 16; ++draw) {
    if (sc[0].NextU32() != sc[1].NextU32()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(SplitRngsTest, ParentAdvancesIdenticallyForEqualK) {
  Rng a(9);
  Rng b(9);
  SplitRngs(a, 8);
  SplitRngs(b, 8);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(DefaultNumThreadsTest, OverrideIsHonored) {
  uint32_t saved = DefaultNumThreads();
  SetDefaultNumThreads(3);
  EXPECT_EQ(DefaultNumThreads(), 3u);
  SetDefaultNumThreads(saved);
  EXPECT_EQ(DefaultNumThreads(), saved);
}

}  // namespace
}  // namespace fairgen
