#include "common/memprobe.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace fairgen::memprobe {
namespace {

TEST(RssProbeTest, CurrentRssIsNonZeroOnLinux) {
  // /proc/self/status is always present on the targeted platform; a zero
  // here means the parser broke, not that the process is weightless.
  uint64_t rss = CurrentRssBytes();
  EXPECT_GT(rss, 0u);
  // A running test binary occupies at least a page and realistically far
  // more; sanity-bound the parse (not bytes-vs-kB confusion territory).
  EXPECT_GT(rss, 4096u);
}

TEST(RssProbeTest, PeakIsAtLeastCurrent) {
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes());
}

TEST(RssProbeTest, PeakIsMonotoneAcrossAllocation) {
  uint64_t peak_before = PeakRssBytes();
  {
    // Touch every page so the allocation actually becomes resident.
    std::vector<char> block(16 * 1024 * 1024);
    for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
    EXPECT_GE(PeakRssBytes(), peak_before);
  }
  EXPECT_GE(PeakRssBytes(), peak_before) << "peak must never decrease";
}

TEST(ByteCounterTest, AddSubAndPeak) {
  ByteCounter c;
  EXPECT_EQ(c.live(), 0u);
  EXPECT_EQ(c.peak(), 0u);
  c.Add(100);
  c.Add(50);
  EXPECT_EQ(c.live(), 150u);
  EXPECT_EQ(c.peak(), 150u);
  c.Sub(120);
  EXPECT_EQ(c.live(), 30u);
  EXPECT_EQ(c.peak(), 150u) << "peak keeps the high-water mark";
  c.Add(10);
  EXPECT_EQ(c.live(), 40u);
  EXPECT_EQ(c.peak(), 150u) << "below the old peak, no change";
  c.ResetPeak();
  EXPECT_EQ(c.peak(), 40u) << "ResetPeak lowers to live, not to zero";
}

TEST(ByteCounterTest, ConcurrentTalliesBalanceExactly) {
  ByteCounter c;
  constexpr size_t kOps = 20000;
  ParallelFor(
      size_t{0}, kOps, size_t{64},
      [&](size_t) {
        c.Add(64);
        c.Sub(64);
      },
      4);
  EXPECT_EQ(c.live(), 0u) << "adds and subs must balance under concurrency";
  EXPECT_GE(c.peak(), 64u);
}

// Calls the allocator directly: through a std::vector, GCC 12 sinks the
// vector's size computation past the inlined operator delete and reports
// a false -Wuse-after-free. Containers of the 64-byte-aligned variant
// (nn::FloatBuffer) are covered by tests/nn/bytes_accounting_test.cc.
TEST(TrackingAllocatorTest, ChargesNnBytesExactly) {
  uint64_t live_before = NnBytes().live();
  TrackingAllocator<float, &NnBytes> allocator;
  float* buf = allocator.allocate(1000);
  EXPECT_GE(NnBytes().live(), live_before + 1000 * sizeof(float));
  allocator.deallocate(buf, 1000);
  EXPECT_EQ(NnBytes().live(), live_before)
      << "deallocation must return the tally to its baseline";
}

// A stage sample's one record is its journal event: no registry gauge or
// series repeats it (live memory is the telemetry publisher's own read).
TEST(SampleTest, EmitsOneStageEvent) {
  events::Journal& journal = events::Journal::Global();
  journal.ResetForTest();
  const std::vector<metrics::MetricSnapshot> before =
      metrics::MetricsRegistry::Global().Snapshot();
  Sample("test.memprobe");
  std::vector<events::Event> stages;
  journal.VisitPending(events::Type::kStage,
                       [&](const events::Event& e) { stages.push_back(e); });
  journal.ResetForTest();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].name, "test.memprobe");
  ASSERT_EQ(stages[0].fields.size(), 2u);
  EXPECT_EQ(stages[0].fields[0].first, "rss_bytes");
  EXPECT_GT(stages[0].fields[0].second, 0.0);
  // Zero is fine: this test may run before any tensor allocation.
  EXPECT_EQ(stages[0].fields[1].first, "nn_bytes_live");
  EXPECT_EQ(metrics::MetricsRegistry::Global().Snapshot().size(),
            before.size());
}

}  // namespace
}  // namespace fairgen::memprobe
