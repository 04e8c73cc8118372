// Active-profiler suite: sampling, folded/top exports, restart semantics
// and concurrent draining. Lives apart from prof_off_test.cc because the
// first Start here installs the (gated) SIGPROF handler for the rest of
// the process — the off-by-default invariants need a binary that never
// starts the profiler.

#include "common/prof.h"

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace fairgen::prof {
namespace {

// Burns CPU until `target` samples have been aggregated or ~30 s of spin
// passed. ITIMER_PROF counts CPU time, so a busy loop is the one reliable
// way to attract SIGPROF; the volatile sink keeps the loop from folding.
uint64_t SpinUntilSamples(uint64_t target) {
  Profiler& profiler = Profiler::Global();
  volatile uint64_t sink = 0;
  for (int round = 0; round < 30000; ++round) {
    for (uint64_t i = 0; i < 200000; ++i) sink = sink + i * i;
    profiler.Drain();
    if (profiler.samples() >= target) break;
  }
  return profiler.samples();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

// Structural contract of one collapsed-stack line:
// `frame[;frame...]<space><positive integer>`. The *last* space is the
// stack/count separator; frames themselves may contain spaces (demangled
// template and signature text), which flamegraph.pl parses fine.
void ExpectFoldedLineWellFormed(const std::string& line) {
  size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << line;
  ASSERT_GT(space, 0u) << line;
  const std::string count = line.substr(space + 1);
  ASSERT_FALSE(count.empty()) << line;
  for (char c : count) ASSERT_TRUE(c >= '0' && c <= '9') << line;
  EXPECT_NE(count, "0") << line;
}

class ProfTest : public ::testing::Test {
 protected:
  void TearDown() override { Profiler::Global().Stop(); }
};

TEST_F(ProfTest, StartRejectsBadHzAndDoubleStart) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions bad;
  bad.hz = 0;
  EXPECT_TRUE(profiler.Start(bad).IsInvalidArgument());
  bad.hz = 20000;
  EXPECT_TRUE(profiler.Start(bad).IsInvalidArgument());

  ProfilerOptions good;
  good.hz = 499;
  ASSERT_TRUE(profiler.Start(good).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.hz(), 499u);
  EXPECT_TRUE(profiler.Start(good).IsFailedPrecondition());
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  profiler.Stop();  // idempotent
}

TEST_F(ProfTest, CollectsSamplesAndExportsFoldedAndTop) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.hz = 997;  // fast sampling keeps the test short
  ASSERT_TRUE(profiler.Start(options).ok());
  ASSERT_GE(SpinUntilSamples(20), 20u) << "no SIGPROF samples arrived";
  profiler.Stop();

  // The aggregate stays readable after Stop.
  const uint64_t total = profiler.samples();
  ASSERT_GE(total, 20u);

  std::vector<FoldedStack> folded = profiler.ToFolded();
  ASSERT_FALSE(folded.empty());
  uint64_t folded_total = 0;
  for (const FoldedStack& stack : folded) {
    EXPECT_FALSE(stack.frames.empty());
    EXPECT_GT(stack.count, 0u);
    folded_total += stack.count;
    for (const std::string& frame : stack.frames) {
      EXPECT_FALSE(frame.empty());
      // ';' and newlines are the reserved separators of the folded
      // format; symbolization scrubs them out of demangled names.
      EXPECT_EQ(frame.find(';'), std::string::npos) << frame;
      EXPECT_EQ(frame.find('\n'), std::string::npos) << frame;
    }
  }
  EXPECT_EQ(folded_total, total) << "folded counts must sum to samples()";

  std::string text = profiler.ToFoldedText();
  ASSERT_FALSE(text.empty());
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ExpectFoldedLineWellFormed(text.substr(start, end - start));
    start = end + 1;
  }

  std::vector<SymbolCount> top = profiler.TopSymbols(5);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].samples, top[i].samples) << "top-N not sorted";
  }

  auto top_json = json::Parse(profiler.TopJson(5));
  ASSERT_TRUE(top_json.ok()) << top_json.status().ToString();
  EXPECT_EQ(top_json->GetDouble("schema_version", 0), 1.0);
  EXPECT_EQ(top_json->GetDouble("samples", 0),
            static_cast<double>(total));
  ASSERT_NE(top_json->Find("top"), nullptr);
  ASSERT_TRUE(top_json->Find("top")->is_array());

  // Artifacts land in the run dir and validate structurally.
  const std::string dir = ::testing::TempDir() + "/fairgen_prof_artifacts";
  ::mkdir(dir.c_str(), 0755);
  ASSERT_TRUE(profiler.WriteArtifacts(dir).ok());
  EXPECT_TRUE(FileExists(dir + "/profile.folded"));
  EXPECT_TRUE(FileExists(dir + "/profile_top.json"));
}

TEST_F(ProfTest, RestartResetsAggregates) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options).ok());
  ASSERT_GE(SpinUntilSamples(5), 5u);
  profiler.Stop();
  ASSERT_GE(profiler.samples(), 5u);

  // A new session must not inherit the previous session's samples.
  ASSERT_TRUE(profiler.Start(options).ok());
  profiler.Drain();
  EXPECT_LT(profiler.samples(), 5u);
  ASSERT_GE(SpinUntilSamples(5), 5u);
  profiler.Stop();
}

// Consumer side under concurrency: worker threads attract SIGPROF into
// their per-thread rings while the main thread drains continuously — the
// TSan pass over the observability/parallel labels certifies the SPSC
// ring handoff as race-free.
TEST_F(ProfTest, ConcurrentDrainWhileSampling) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop] {
      volatile uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint64_t i = 0; i < 50000; ++i) sink = sink + i * i;
      }
    });
  }
  // Pace the drain loop: an unpaced loop finishes its 2000 rounds in a
  // few milliseconds of wall time, before the spinners have burned enough
  // CPU for ITIMER_PROF to deliver anything.
  for (int round = 0; round < 2000; ++round) {
    profiler.Drain();
    if (profiler.samples() >= 50) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  profiler.Stop();

  EXPECT_GT(profiler.samples(), 0u);
  // Every aggregated stack stays structurally sound after the concurrent
  // handoff (the corrupt-record guard would have discarded torn ones).
  for (const FoldedStack& stack : profiler.ToFolded()) {
    EXPECT_FALSE(stack.frames.empty());
    EXPECT_GT(stack.count, 0u);
  }
}

}  // namespace
}  // namespace fairgen::prof
