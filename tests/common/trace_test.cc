#include "common/trace.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace fairgen::trace {
namespace {

// The tracer is process-wide; every test clears it and restores the
// disabled default on the way out.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  { ScopedSpan span("test.disabled"); }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST_F(TraceTest, RecordsWallAndCpuTime) {
  Tracer::Global().SetEnabled(true);
  {
    ScopedSpan span("test.busy");
    // Burn a little CPU so cpu_ns has a chance to be non-zero; correctness
    // here only requires wall >= 0 and the span to appear.
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i) * 1e-9;
  }
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.busy");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_GT(spans[0].wall_ns, 0u);
}

TEST_F(TraceTest, NestedSpansTrackDepthAndFinishInnerFirst) {
  Tracer::Global().SetEnabled(true);
  {
    ScopedSpan outer("test.outer");
    {
      ScopedSpan inner("test.inner");
    }
  }
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner closes before outer.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].wall_ns, spans[0].wall_ns);
}

TEST_F(TraceTest, ConcurrentSpansAllRecorded) {
  Tracer::Global().SetEnabled(true);
  constexpr size_t kSpans = 256;
  ParallelFor(
      size_t{0}, kSpans, size_t{8},
      [&](size_t) { ScopedSpan span("test.parallel"); }, 4);
  EXPECT_EQ(Tracer::Global().size(), kSpans);
}

// The one span export is Chrome trace-event JSON: each span is a complete
// event carrying its wall (`dur`) and CPU (`tdur`) time and its category.
TEST_F(TraceTest, JsonExport) {
  Tracer::Global().SetEnabled(true);
  { ScopedSpan span("test.export"); }
  auto doc = json::Parse(Tracer::Global().ToChromeTrace());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const json::Value* span = nullptr;
  for (const json::Value& e : events->AsArray()) {
    if (e.GetString("ph") == "X" && e.GetString("name") == "test.export") {
      span = &e;
    }
  }
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->GetDouble("dur", -1.0), 0.0);
  EXPECT_GE(span->GetDouble("tdur", -1.0), 0.0);
  EXPECT_EQ(span->GetString("cat"), "general");
}

TEST_F(TraceTest, CategoryNamesAreStable) {
  EXPECT_EQ(CategoryName(Category::kGeneral), "general");
  EXPECT_EQ(CategoryName(Category::kWalk), "walk");
  EXPECT_EQ(CategoryName(Category::kTrain), "train");
  EXPECT_EQ(CategoryName(Category::kEmbed), "embed");
  EXPECT_EQ(CategoryName(Category::kGenerate), "generate");
  EXPECT_EQ(CategoryName(Category::kAssemble), "assemble");
  EXPECT_EQ(CategoryName(Category::kEval), "eval");
}

TEST_F(TraceTest, SpansCarryTheirCategoryIntoExports) {
  Tracer::Global().SetEnabled(true);
  { ScopedSpan span("test.walk_span", Category::kWalk); }
  { ScopedSpan span("test.eval_span", Category::kEval); }
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].category, Category::kWalk);
  EXPECT_EQ(spans[1].category, Category::kEval);

  std::string chrome = Tracer::Global().ToChromeTrace();
  EXPECT_NE(chrome.find("\"cat\": \"walk\""), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"cat\": \"eval\""), std::string::npos) << chrome;
}

// ScopedSpan must outlive a temporary name: the name is interned into the
// tracer's arena at construction, so dynamically built strings (the
// "bench.<scenario>" pattern) are safe to pass and identical names share
// one arena entry.
TEST_F(TraceTest, TemporaryNamesAreInternedSafely) {
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 3; ++i) {
    std::string dynamic = std::string("test.") + "dynamic";
    ScopedSpan span(dynamic);
    dynamic.assign(64, 'x');  // clobber the source before the span closes
  }
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) EXPECT_EQ(s.name, "test.dynamic");

  std::string_view a = Tracer::Global().InternName("test.interned");
  std::string_view b =
      Tracer::Global().InternName(std::string("test.") + "interned");
  EXPECT_EQ(a.data(), b.data()) << "identical names must share arena storage";
}

TEST_F(TraceTest, ClearDropsSpans) {
  Tracer::Global().SetEnabled(true);
  { ScopedSpan span("test.clear"); }
  ASSERT_EQ(Tracer::Global().size(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().size(), 0u);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

// The ring-buffer cap: below capacity the tracer is a plain append log;
// at capacity the oldest spans are overwritten, a drop counter advances,
// and every export sees only the retained suffix in completion order.
class TraceRingTest : public TraceTest {
 protected:
  void TearDown() override {
    Tracer::Global().SetCapacity(Tracer::kDefaultCapacity);
    metrics::MetricsRegistry::Global()
        .GetCounter("trace.spans_dropped")
        .Reset();
    TraceTest::TearDown();
  }
};

TEST_F(TraceRingTest, CapRetainsNewestSpansInOrder) {
  Tracer::Global().SetCapacity(4);
  EXPECT_EQ(Tracer::Global().capacity(), 4u);
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("test.ring." + std::to_string(i));
  }
  EXPECT_EQ(Tracer::Global().size(), 4u);
  EXPECT_EQ(Tracer::Global().dropped(), 6u);

  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].name, "test.ring." + std::to_string(6 + i));
  }
}

TEST_F(TraceRingTest, DropCounterFeedsMetricsRegistry) {
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  counter.Reset();
  Tracer::Global().SetCapacity(2);
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("test.ringdrop");
  }
  EXPECT_EQ(Tracer::Global().dropped(), 3u);
  EXPECT_EQ(counter.value(), 3u);
}

TEST_F(TraceRingTest, ChromeTraceExportsOnlyRetainedSpans) {
  Tracer::Global().SetCapacity(3);
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 6; ++i) {
    ScopedSpan span("test.chrome." + std::to_string(i));
  }
  std::string chrome = Tracer::Global().ToChromeTrace();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(chrome.find("test.chrome." + std::to_string(i)),
              std::string::npos)
        << "evicted span leaked into the export";
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_NE(chrome.find("test.chrome." + std::to_string(i)),
              std::string::npos);
  }
}

TEST_F(TraceRingTest, ClearResetsRingState) {
  Tracer::Global().SetCapacity(2);
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("test.ringclear");
  }
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().size(), 0u);
  EXPECT_EQ(Tracer::Global().dropped(), 0u);
  { ScopedSpan span("test.ringclear.after"); }
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.ringclear.after");
}

TEST_F(TraceRingTest, ShrinkingCapacityEvictsOldest) {
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 6; ++i) {
    ScopedSpan span("test.shrink." + std::to_string(i));
  }
  Tracer::Global().SetCapacity(2);
  std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "test.shrink.4");
  EXPECT_EQ(spans[1].name, "test.shrink.5");
  EXPECT_EQ(Tracer::Global().dropped(), 4u);
}

TEST_F(TraceRingTest, SummarizeByCategoryAggregates) {
  Tracer::Global().SetEnabled(true);
  { ScopedSpan span("test.sum.w1", Category::kWalk); }
  { ScopedSpan span("test.sum.w2", Category::kWalk); }
  { ScopedSpan span("test.sum.t1", Category::kTrain); }
  auto summary = Tracer::Global().SummarizeByCategory();
  ASSERT_EQ(summary.size(), 2u);
  // Sorted by category name: "train" < "walk".
  EXPECT_EQ(summary[0].first, "train");
  EXPECT_EQ(summary[0].second.count, 1u);
  EXPECT_EQ(summary[1].first, "walk");
  EXPECT_EQ(summary[1].second.count, 2u);
  EXPECT_GE(summary[1].second.wall_ns, 0u);
}

}  // namespace
}  // namespace fairgen::trace
