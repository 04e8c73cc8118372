#include "common/memprobe.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

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

TEST(SampleTest, RegistersGaugesAndSeries) {
  metrics::SetEnabled(true);
  Sample("test.memprobe");
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
  EXPECT_GT(reg.GetGauge("mem.rss_current_bytes").value(), 0.0);
  EXPECT_GT(reg.GetGauge("mem.rss_peak_bytes").value(), 0.0);
  EXPECT_GE(reg.GetGauge("mem.rss_peak_bytes").value(),
            reg.GetGauge("mem.rss_current_bytes").value());
  // nn gauges exist (zero is fine — this test may run before any tensor
  // allocation).
  reg.GetGauge("nn.bytes_live");
  reg.GetGauge("nn.bytes_peak");

  size_t points_before = reg.GetSeries("mem.rss_bytes").size();
  Sample("test.memprobe.again");
  EXPECT_EQ(reg.GetSeries("mem.rss_bytes").size(), points_before + 1)
      << "each Sample appends one rss series point";
  EXPECT_GE(reg.GetSeries("nn.bytes").size(), 1u);
}

}  // namespace
}  // namespace fairgen::memprobe
