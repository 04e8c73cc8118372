// Golden-schema test for the Chrome trace-event export: records a small
// but representative trace (nested spans, multiple threads, span
// categories, one metrics series) and validates the emitted document
// against the checked-in fragment list in
// tests/golden/chrome_trace_schema.txt, then parses it with the repo's own
// JSON reader and checks the event structure Perfetto relies on.
//
// The schema path is injected by tests/CMakeLists.txt as the
// FAIRGEN_CHROME_TRACE_SCHEMA_PATH compile definition.

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace fairgen::trace {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ChromeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
    metrics::SetEnabled(true);
  }
  void TearDown() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
    metrics::SetEnabled(true);
  }

  // Records the representative trace every test in this file validates:
  // a nested categorized span pair on the main thread, a parallel region
  // (so thread tracks > 0 exist), and a two-point metrics series (so a
  // counter track exists).
  void RecordSampleTrace() {
    Tracer::Global().SetEnabled(true);
    {
      ScopedSpan outer("chrometest.outer", Category::kTrain);
      ScopedSpan inner("chrometest.inner", Category::kWalk);
    }
    // A dedicated thread guarantees a second stable thread index (the
    // pool's dynamic chunk pickup could leave every chunk on the caller).
    std::thread([] {
      ScopedSpan span("chrometest.parallel", Category::kEval);
    }).join();
    metrics::Series& series =
        metrics::MetricsRegistry::Global().GetSeries("chrometest.series");
    series.Reset();
    series.Append(0, 1.5);
    series.Append(1, 2.5);
  }
};

TEST_F(ChromeTraceTest, ContainsEveryGoldenFragment) {
  RecordSampleTrace();
  std::string trace = Tracer::Global().ToChromeTrace();

  std::string schema = ReadFileOrDie(FAIRGEN_CHROME_TRACE_SCHEMA_PATH);
  size_t fragments_checked = 0;
  for (const std::string& raw_line : StrSplit(schema, '\n')) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(trace.find(line), std::string::npos)
        << "Chrome trace export is missing golden fragment: " << line;
    ++fragments_checked;
  }
  EXPECT_GE(fragments_checked, 14u) << "schema file looks truncated";
}

TEST_F(ChromeTraceTest, ParsesAndCarriesSpanStructure) {
  RecordSampleTrace();
  auto doc = json::Parse(Tracer::Global().ToChromeTrace());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("displayTimeUnit"), "ms");

  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_process_meta = false;
  bool saw_thread1_meta = false;
  bool saw_counter = false;
  const json::Value* outer = nullptr;
  const json::Value* inner = nullptr;
  for (const json::Value& e : events->AsArray()) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.GetString("ph");
    if (ph == "M" && e.GetString("name") == "process_name") {
      saw_process_meta = true;
      EXPECT_EQ(e.Find("args")->GetString("name"), "fairgen");
    }
    if (ph == "M" && e.GetString("name") == "thread_name" &&
        e.GetDouble("tid", -1.0) == 1.0) {
      saw_thread1_meta = true;
    }
    if (ph == "C" && e.GetString("name") == "chrometest.series") {
      saw_counter = true;
      const json::Value* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      double v = args->GetDouble("value", -1.0);
      EXPECT_TRUE(v == 1.5 || v == 2.5) << v;
    }
    if (ph == "X" && e.GetString("name") == "chrometest.outer") outer = &e;
    if (ph == "X" && e.GetString("name") == "chrometest.inner") inner = &e;
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_TRUE(saw_thread1_meta)
      << "parallel spans must surface extra thread tracks";
  EXPECT_TRUE(saw_counter)
      << "metrics series must render as a counter track";

  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Nesting: the inner span starts no earlier, lasts no longer, and sits
  // one level deeper on the same thread track.
  EXPECT_GE(inner->GetDouble("ts"), outer->GetDouble("ts"));
  EXPECT_LE(inner->GetDouble("dur"), outer->GetDouble("dur"));
  EXPECT_EQ(inner->GetDouble("tid"), outer->GetDouble("tid"));
  EXPECT_EQ(outer->Find("args")->GetDouble("depth"), 0.0);
  EXPECT_EQ(inner->Find("args")->GetDouble("depth"), 1.0);
  EXPECT_EQ(outer->GetString("cat"), "train");
  EXPECT_EQ(inner->GetString("cat"), "walk");
  // CPU columns exist and are sane: thread CPU time cannot exceed wall
  // time by more than rounding.
  EXPECT_GE(outer->GetDouble("tdur", -1.0), 0.0);
  EXPECT_GE(outer->GetDouble("tts", -1.0), 0.0);
}

}  // namespace
}  // namespace fairgen::trace
