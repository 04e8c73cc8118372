#include "common/metrics.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/json.h"
#include "common/parallel.h"

namespace fairgen::metrics {
namespace {

// The registry is process-wide, so every test uses names under its own
// "test.<case>." prefix and restores the enabled flag it found.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetEnabled(true); }
  void TearDown() override { SetEnabled(true); }
};

TEST_F(MetricsTest, CounterBasics) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.basics.counter");
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, GetReturnsSameInstance) {
  Counter& a = MetricsRegistry::Global().GetCounter("test.same.counter");
  Counter& b = MetricsRegistry::Global().GetCounter("test.same.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = MetricsRegistry::Global().GetGauge("test.same.gauge");
  Gauge& g2 = MetricsRegistry::Global().GetGauge("test.same.gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST_F(MetricsTest, DisabledMutationsAreNoOps) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.disabled.counter");
  Gauge& g = reg.GetGauge("test.disabled.gauge");
  Histogram& h = reg.GetHistogram("test.disabled.histogram", {1.0, 2.0});
  Series& s = reg.GetSeries("test.disabled.series");
  c.Reset();
  g.Reset();
  h.Reset();
  s.Reset();

  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  c.Increment(7);
  g.Set(3.5);
  h.Observe(1.5);
  s.Append(0, 1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(s.size(), 0u);

  SetEnabled(true);
  c.Increment(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(MetricsTest, GaugeStoresLastValue) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge.last");
  g.Set(1.25);
  g.Set(-7.5);
  EXPECT_EQ(g.value(), -7.5);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketsAndOverflow) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.histogram.buckets", {1.0, 5.0, 10.0});
  h.Reset();
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow

  h.Observe(0.5);   // <= 1.0
  h.Observe(1.0);   // boundary: still <= 1.0
  h.Observe(3.0);   // <= 5.0
  h.Observe(10.0);  // boundary: <= 10.0
  h.Observe(11.0);  // overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 25.5);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST_F(MetricsTest, SeriesKeepsAppendOrder) {
  Series& s = MetricsRegistry::Global().GetSeries("test.series.order");
  s.Reset();
  s.Append(0, 10.0);
  s.Append(1, 5.0);
  s.Append(2, 2.5);
  auto points = s.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0], std::make_pair(0.0, 10.0));
  EXPECT_EQ(points[1], std::make_pair(1.0, 5.0));
  EXPECT_EQ(points[2], std::make_pair(2.0, 2.5));
  s.Reset();
  EXPECT_EQ(s.size(), 0u);
}

// Counters must sum exactly under concurrent increments from the parallel
// runtime — the property every per-chunk `Increment` in the walk samplers
// and generators relies on.
TEST_F(MetricsTest, ConcurrentIncrementsSumExactly) {
  Counter& c =
      MetricsRegistry::Global().GetCounter("test.concurrent.counter");
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.concurrent.histogram", {0.5});
  c.Reset();
  h.Reset();
  constexpr size_t kItems = 100000;
  for (uint32_t threads : {1u, 2u, 4u}) {
    c.Reset();
    h.Reset();
    ParallelFor(
        size_t{0}, kItems, size_t{64},
        [&](size_t i) {
          c.Increment();
          h.Observe(i % 2 == 0 ? 0.25 : 1.0);
        },
        threads);
    EXPECT_EQ(c.value(), kItems) << "threads=" << threads;
    EXPECT_EQ(h.count(), kItems) << "threads=" << threads;
    EXPECT_EQ(h.bucket_count(0), kItems / 2) << "threads=" << threads;
    EXPECT_EQ(h.bucket_count(1), kItems / 2) << "threads=" << threads;
  }
}

TEST_F(MetricsTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snapshot.b").Increment(3);
  reg.GetGauge("test.snapshot.a").Set(1.5);
  std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const MetricSnapshot& m : snap) {
    if (m.name == "test.snapshot.b") {
      saw_counter = true;
      EXPECT_EQ(m.type, "counter");
      ASSERT_EQ(m.fields.size(), 1u);
      EXPECT_EQ(m.fields[0].second, 3.0);
    }
    if (m.name == "test.snapshot.a") {
      saw_gauge = true;
      EXPECT_EQ(m.type, "gauge");
      ASSERT_EQ(m.fields.size(), 1u);
      EXPECT_EQ(m.fields[0].second, 1.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

// The JSON and CSV exports flatten identically, so the CSV — parsed back
// through the repo's own CSV reader — must reproduce every field value the
// snapshot (and hence the JSON) reports, bit-for-bit (%.17g round-trip).
TEST_F(MetricsTest, CsvExportRoundTripsAgainstJson) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.roundtrip.counter").Increment(12345);
  reg.GetGauge("test.roundtrip.gauge").Set(0.1);  // not exactly representable
  Histogram& h =
      reg.GetHistogram("test.roundtrip.histogram", {1.0, 2.0});
  h.Reset();
  h.Observe(0.7);
  h.Observe(1.7);
  h.Observe(99.0);
  Series& s = reg.GetSeries("test.roundtrip.series");
  s.Reset();
  s.Append(0, 1.0 / 3.0);
  s.Append(1, 2.0 / 3.0);

  auto csv = ParseCsv(reg.ToCsv());
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->header(),
            (std::vector<std::string>{"metric", "type", "field", "value"}));

  // Index the parsed rows by (metric, field).
  std::map<std::pair<std::string, std::string>, std::pair<std::string, double>>
      parsed;
  for (const auto& row : csv->rows()) {
    ASSERT_EQ(row.size(), 4u);
    parsed[{row[0], row[2]}] = {row[1], std::strtod(row[3].c_str(), nullptr)};
  }

  std::vector<MetricSnapshot> snap = reg.Snapshot();
  std::string json = reg.ToJson();
  size_t checked = 0;
  for (const MetricSnapshot& m : snap) {
    EXPECT_NE(json.find("\"" + m.name + "\""), std::string::npos)
        << m.name << " missing from JSON export";
    for (const auto& [field, value] : m.fields) {
      auto it = parsed.find({m.name, field});
      ASSERT_NE(it, parsed.end())
          << m.name << "." << field << " missing from CSV export";
      EXPECT_EQ(it->second.first, m.type);
      // Exact: %.17g preserves doubles through text.
      EXPECT_EQ(it->second.second, value) << m.name << "." << field;
      ++checked;
    }
  }
  EXPECT_EQ(checked, csv->rows().size())
      << "CSV export has rows the snapshot does not";
  // This test alone registers 9 fields (1 counter + 1 gauge + 5 histogram
  // + 2 series); more when other tests ran in the same process.
  EXPECT_GE(checked, 9u);
}

// Counter-track support for the Chrome trace export: every appended point
// carries a monotone steady-clock timestamp, and `SeriesSnapshot` exposes
// all registered series (name-sorted) with those timestamps.
TEST_F(MetricsTest, SeriesPointsCarryMonotoneTimestamps) {
  Series& s = MetricsRegistry::Global().GetSeries("test.timestamps.series");
  s.Reset();
  s.Append(0, 1.0);
  s.Append(1, 2.5);
  std::vector<SeriesPoint> pts = s.points_with_time();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].step, 0.0);
  EXPECT_EQ(pts[0].value, 1.0);
  EXPECT_EQ(pts[1].step, 1.0);
  EXPECT_EQ(pts[1].value, 2.5);
  EXPECT_LE(pts[0].ts_ns, pts[1].ts_ns);
}

TEST_F(MetricsTest, SeriesSnapshotIsSortedAndComplete) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetSeries("test.seriessnap.b").Append(0, 2.0);
  reg.GetSeries("test.seriessnap.a").Append(0, 1.0);
  auto snap = reg.SeriesSnapshot();
  ASSERT_GE(snap.size(), 2u);
  bool saw_a = false;
  for (size_t i = 0; i < snap.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snap[i - 1].first, snap[i].first);
    }
    if (snap[i].first == "test.seriessnap.a") {
      saw_a = true;
      ASSERT_EQ(snap[i].second.size(), 1u);
      EXPECT_EQ(snap[i].second[0].value, 1.0);
    }
  }
  EXPECT_TRUE(saw_a);
}

// Metric names flow into JSON keys; a hostile name (quotes, backslash)
// must be escaped so the export stays parseable.
TEST_F(MetricsTest, JsonExportEscapesMetricNames) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.escape.\"quoted\\name\"").Increment(3);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("test.escape.\\\"quoted\\\\name\\\""),
            std::string::npos)
      << json;
  auto parsed = json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* v = counters->Find("test.escape.\"quoted\\name\"");
  ASSERT_NE(v, nullptr) << "escaped key did not round-trip through parse";
  EXPECT_EQ(v->AsDouble(), 3.0);
}

TEST_F(MetricsTest, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.quantile.histogram", {10.0, 20.0, 40.0});
  h.Reset();
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty histogram

  // 10 observations in [0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) h.Observe(5.0);
  for (int i = 0; i < 10; ++i) h.Observe(15.0);

  // Median: target rank 10 lands exactly at the first bucket's upper
  // edge (10 of 20 observations are <= 10).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  // p25 interpolates halfway into the first bucket [0, 10].
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 5.0);
  // p75 interpolates halfway into the second bucket (10, 20].
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 15.0);
  // q=1 is the top of the highest occupied bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
}

// Quantile edge cases: empty histogram, a single sample, the q=0/q=1
// endpoints, out-of-range q (clamped), and NaN (both as the quantile
// argument and as an observation — NaN observations are rejected outright
// because they would land in the overflow bucket and poison sum()).
TEST_F(MetricsTest, HistogramQuantileEdgeCases) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.quantile_edge.histogram", {10.0, 20.0});
  h.Reset();

  // Empty: every quantile is 0, including NaN/out-of-range q.
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
  EXPECT_EQ(h.Quantile(std::nan("")), 0.0);

  // Single sample in the first bucket [0, 10]: q=0 pins the bucket's
  // bottom edge, q=1 its top edge, and everything in between
  // interpolates inside that one bucket.
  h.Observe(5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);

  // Out-of-range q clamps to [0, 1] instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(7.0), h.Quantile(1.0));

  // NaN q on a populated histogram: defined fallback, not NaN out.
  EXPECT_EQ(h.Quantile(std::nan("")), 0.0);
  EXPECT_FALSE(std::isnan(h.Quantile(std::nan(""))));

  // NaN observations are dropped: count, sum and quantiles unchanged.
  const double sum_before = h.sum();
  h.Observe(std::nan(""));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), sum_before);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
}

TEST_F(MetricsTest, HistogramQuantileOverflowReportsLargestFiniteBound) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.quantile_overflow.histogram", {1.0, 2.0});
  h.Reset();
  for (int i = 0; i < 4; ++i) h.Observe(100.0);  // all overflow
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST_F(MetricsTest, SnapshotCarriesHistogramQuantiles) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.quantile_snapshot.histogram", {1.0, 10.0});
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(0.5);

  bool found = false;
  for (const MetricSnapshot& snap : MetricsRegistry::Global().Snapshot()) {
    if (snap.name != "test.quantile_snapshot.histogram") continue;
    found = true;
    std::map<std::string, double> fields(snap.fields.begin(),
                                         snap.fields.end());
    ASSERT_TRUE(fields.count("p50"));
    ASSERT_TRUE(fields.count("p95"));
    ASSERT_TRUE(fields.count("p99"));
    EXPECT_DOUBLE_EQ(fields["p50"], h.Quantile(0.5));
    EXPECT_DOUBLE_EQ(fields["p95"], h.Quantile(0.95));
    EXPECT_DOUBLE_EQ(fields["p99"], h.Quantile(0.99));
  }
  ASSERT_TRUE(found);

  // The quantile fields ride into the JSON export with every other field.
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(MetricsTest, ResetValuesKeepsReferencesValid) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.resetvalues.counter");
  Series& s = reg.GetSeries("test.resetvalues.series");
  c.Increment(5);
  s.Append(0, 1.0);
  reg.ResetValues();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.size(), 0u);
  c.Increment(2);  // the old reference still points at the live metric
  EXPECT_EQ(reg.GetCounter("test.resetvalues.counter").value(), 2u);
}

}  // namespace
}  // namespace fairgen::metrics
