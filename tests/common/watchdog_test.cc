#include "common/watchdog.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/metrics.h"
#include "common/telemetry.h"

namespace fairgen::watchdog {
namespace {

// Set by the injected fatal handler; the real default raises SIGTERM.
int g_fatal_calls = 0;
void CountingFatalHandler() { ++g_fatal_calls; }

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::MetricsRegistry::Global().ResetValues();
    events::Journal::Global().ResetForTest();
    Watchdog::Global().ResetForTest();
    Watchdog::Global().SetFatalHandler(&CountingFatalHandler);
    g_fatal_calls = 0;
    Options options;
    options.enabled = true;
    Configure(options);
  }

  void TearDown() override {
    Watchdog::Global().SetFatalHandler(nullptr);
    Configure(Options{});  // disabled
    metrics::MetricsRegistry::Global().ResetValues();
    events::Journal::Global().ResetForTest();
  }

  void Configure(const Options& options) {
    Watchdog::Global().Configure(options);
  }

  std::vector<Alert> Tick() { return Watchdog::Global().EvaluateTick(); }

  // Journals one fairness probe, the record the drift rule reads.
  void EmitProbe(double cycle, double gap) {
    events::Event probe;
    probe.type = events::Type::kProbe;
    probe.name = "fairness";
    probe.epoch = cycle;
    probe.fields = {{"overall_nll", 1.0}, {"disparity_gap", gap}};
    events::Journal::Global().Emit(std::move(probe));
  }

  metrics::MetricsRegistry& registry() {
    return metrics::MetricsRegistry::Global();
  }
};

TEST_F(WatchdogTest, DisabledEngineNeverFires) {
  Configure(Options{});  // enabled = false
  registry().GetCounter("trainer.nonfinite_batches").Increment();
  EXPECT_TRUE(Tick().empty());
  EXPECT_EQ(events::Journal::Global().TypeCount(events::Type::kAlert), 0u);
}

TEST_F(WatchdogTest, NonFiniteLossFiresPerIncrease) {
  registry().GetCounter("trainer.nonfinite_batches").Increment();
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "loss_non_finite");
  EXPECT_EQ(fired[0].severity, Severity::kWarn);

  // Same count -> quiet; another increase -> fires again.
  EXPECT_TRUE(Tick().empty());
  registry().GetCounter("trainer.nonfinite_batches").Increment(2);
  fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].value, 3.0);
}

// An alert's one record is its journal event: no registry metric and so
// no Prometheus family repeats it.
TEST_F(WatchdogTest, AlertsAreJournaledOnly) {
  registry().GetCounter("trainer.nonfinite_batches").Increment();
  ASSERT_EQ(Tick().size(), 1u);
  std::vector<events::Event> alerts;
  events::Journal::Global().VisitPending(
      events::Type::kAlert,
      [&](const events::Event& event) { alerts.push_back(event); });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].name, "loss_non_finite");
  EXPECT_EQ(alerts[0].severity, "warn");
  ASSERT_NE(alerts[0].Field("value"), nullptr);
  EXPECT_EQ(*alerts[0].Field("value"), 1.0);
  for (const metrics::MetricSnapshot& snap : registry().Snapshot()) {
    EXPECT_NE(snap.name.rfind("alerts", 0), 0u) << snap.name;
  }
  EXPECT_EQ(telemetry::PrometheusText().find("alerts"), std::string::npos);
}

TEST_F(WatchdogTest, ExplodingLossLatchesPerEpisodeAndRearms) {
  Options options;
  options.enabled = true;
  options.explode_factor = 100.0;
  Configure(options);
  auto& series = registry().GetSeries("trainer.total_loss");
  series.Append(0, 2.0);
  series.Append(1, 500.0);  // > 100 x max(|2.0|, 1)
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "loss_exploding");
  EXPECT_TRUE(Tick().empty());  // latched within the episode

  series.Append(2, 2.5);  // recovery re-arms
  EXPECT_TRUE(Tick().empty());
  series.Append(3, 900.0);  // second episode
  fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "loss_exploding");
}

TEST_F(WatchdogTest, PlateauFiresWhenWindowHasNoNewMinimum) {
  Options options;
  options.enabled = true;
  options.plateau_cycles = 3;
  Configure(options);
  auto& series = registry().GetSeries("trainer.total_loss");
  series.Append(0, 5.0);
  series.Append(1, 3.0);  // minimum, before the trailing window
  series.Append(2, 4.0);
  series.Append(3, 4.0);
  EXPECT_TRUE(Tick().empty());  // window [1..3] still contains the min
  series.Append(4, 4.0);        // window [2..4]: no improvement on 3.0
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "loss_plateau");
  EXPECT_TRUE(Tick().empty());  // latched

  series.Append(5, 1.0);  // new minimum re-arms
  EXPECT_TRUE(Tick().empty());
}

// The stall window is wall time: a quiet tick fires once the window has
// passed since the last progress, however many ticks that took.
TEST_F(WatchdogTest, StallFiresAfterQuietTicksAndResetsOnProgress) {
  Options options;
  options.enabled = true;
  options.stall_window_ms = 50;
  Configure(options);
  // No progress at all: never armed, never fires.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(Tick().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(Tick().empty());

  events::Event stage;
  stage.type = events::Type::kStage;
  stage.name = "fit";
  events::Journal::Global().Emit(stage);
  EXPECT_TRUE(Tick().empty());  // progress observed, window restarts
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "stage_stall");
  EXPECT_TRUE(Tick().empty());  // latched

  // New progress clears the latch; the next quiet window fires again.
  stage.name = "generate";
  events::Journal::Global().Emit(stage);
  EXPECT_TRUE(Tick().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(Tick().size(), 1u);
}

// At a 20 ms publisher interval the rule stays quiet for the whole
// window: when it counted ticks, a healthy cycle that outlived 120 ticks
// (2.4 s at 20 ms) raised a stall.
TEST_F(WatchdogTest, StallWindowIsWallTimeAtAShortInterval) {
  using Clock = std::chrono::steady_clock;
  Options options;
  options.enabled = true;
  options.stall_window_ms = 400;
  Configure(options);
  events::Event stage;
  stage.type = events::Type::kStage;
  stage.name = "fit";
  events::Journal::Global().Emit(stage);
  const Clock::time_point progress = Clock::now();
  ASSERT_TRUE(Tick().empty());  // observes the progress

  // The watchdog's and this test's clocks are read a little apart, so
  // each check keeps a margin from the window's edge.
  const auto window = std::chrono::milliseconds(options.stall_window_ms);
  const auto margin = std::chrono::milliseconds(5);
  int quiet_ticks = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Clock::duration before = Clock::now() - progress;
    std::vector<Alert> fired = Tick();
    const Clock::duration after = Clock::now() - progress;
    if (!fired.empty()) {
      EXPECT_EQ(fired[0].rule, "stage_stall");
      EXPECT_GE(after + margin, window) << "fired inside the window";
      break;
    }
    ASSERT_LT(before, window + margin) << "window passed without a stall";
    ++quiet_ticks;
  }
  // A window of 400 ms spans about 20 ticks of 20 ms (fewer when the
  // machine is loaded and a sleep overshoots).
  EXPECT_GE(quiet_ticks, 5);
}

TEST_F(WatchdogTest, RssBudgetIsFatalDebouncedAndArmGated) {
  Options options;
  options.enabled = true;
  options.rss_budget_mb = 1;  // any real process exceeds 1 MiB
  options.rss_debounce_ticks = 2;
  options.fatal_arm_cycles = 1;
  Configure(options);

  // trainer.cycles == 0 < fatal_arm_cycles: breaches don't arm the rule.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(Tick().empty());
  EXPECT_EQ(g_fatal_calls, 0);

  registry().GetCounter("trainer.cycles").Increment();
  EXPECT_TRUE(Tick().empty());  // armed, streak 1 of 2
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "rss_budget");
  EXPECT_EQ(fired[0].severity, Severity::kFatal);
  EXPECT_EQ(g_fatal_calls, 1);

  // The fatal action runs at most once per process even if the rule set
  // keeps breaching.
  EXPECT_TRUE(Tick().empty());
  EXPECT_EQ(g_fatal_calls, 1);
}

TEST_F(WatchdogTest, DroppedRecordsFirePerIncrease) {
  registry().GetCounter("prof.samples_dropped").Increment(4);
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "spans_dropped");
  EXPECT_TRUE(Tick().empty());
  registry().GetCounter("prof.samples_dropped").Increment();
  EXPECT_EQ(Tick().size(), 1u);
}

TEST_F(WatchdogTest, FairnessDriftComparesLastGapToFirst) {
  EmitProbe(0, 0.01);
  EXPECT_TRUE(Tick().empty());  // one probe: no trend yet
  EmitProbe(1, 0.04);
  EXPECT_TRUE(Tick().empty());  // growth 0.03 below the 0.05 floor
  EmitProbe(2, 0.2);
  std::vector<Alert> fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "fairness_drift");
  EXPECT_EQ(fired[0].value, 0.2);
  EXPECT_TRUE(Tick().empty());  // latched while drifted

  EmitProbe(3, 0.02);  // back near the first gap: re-arms
  EXPECT_TRUE(Tick().empty());
  EmitProbe(4, 0.3);
  EXPECT_EQ(Tick().size(), 1u);
}

// Two probes between ticks: the first gap is the reference, not the
// second, and it stays the reference after the journal is flushed.
TEST_F(WatchdogTest, FairnessDriftKeepsFirstGapAcrossProbesBetweenTicks) {
  EmitProbe(0, 0.1);
  EmitProbe(1, 0.3);
  std::vector<Alert> fired = Tick();  // 0.3 - 0.1 > max(0.05, 1 x 0.1)
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "fairness_drift");
  EXPECT_EQ(fired[0].value, 0.3);
  EXPECT_NE(fired[0].message.find("from 0.1 to 0.3"), std::string::npos)
      << fired[0].message;

  const std::string path = testing::TempDir() + "/fairgen_watchdog_drift_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(events::Journal::Global().FlushTo(path).ok());
  std::remove(path.c_str());

  EmitProbe(2, 0.15);
  EXPECT_TRUE(Tick().empty());  // back within the limit: re-arms
  // Drifted against the first gap 0.1; against 0.15 (limit 0.15) it
  // would not be.
  EmitProbe(3, 0.26);
  fired = Tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].value, 0.26);
}

TEST_F(WatchdogTest, ConfigureResetsRuleState) {
  registry().GetCounter("trainer.nonfinite_batches").Increment();
  ASSERT_EQ(Tick().size(), 1u);
  // Reconfiguring drops the marker, so the same counter value fires anew.
  Options options;
  options.enabled = true;
  Configure(options);
  EXPECT_EQ(Tick().size(), 1u);
}

}  // namespace
}  // namespace fairgen::watchdog
