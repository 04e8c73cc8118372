// Off-by-default invariants of the sampling profiler, in a binary that
// NEVER calls Profiler::Start: linking the profiler must be bitwise free.
// These assertions live in their own test executable because a single
// Start anywhere in the process installs the (gated) SIGPROF handler for
// good — sharing a binary with the active-profiler suite would make the
// invariants depend on test ordering.

#include "common/prof.h"

#include <signal.h>

#include <cstdlib>

#include <gtest/gtest.h>

namespace fairgen::prof {
namespace {

TEST(ProfOffByDefaultTest, NoSigprofHandlerInstalled) {
  struct sigaction current;
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL)
      << "a SIGPROF handler is installed without Profiler::Start";
}

TEST(ProfOffByDefaultTest, ProfilerReportsStopped) {
  Profiler& profiler = Profiler::Global();
  EXPECT_FALSE(profiler.running());
  EXPECT_EQ(profiler.samples(), 0u);
  EXPECT_EQ(profiler.dropped(), 0u);
  EXPECT_EQ(profiler.hz(), 0u);
  EXPECT_TRUE(profiler.ToFolded().empty());
  EXPECT_TRUE(profiler.ToFoldedText().empty());
  EXPECT_TRUE(profiler.TopSymbols(10).empty());
}

TEST(ProfOffByDefaultTest, HzFromEnvParsesAndRejects) {
  ASSERT_EQ(::unsetenv("FAIRGEN_PROF_HZ"), 0);
  EXPECT_EQ(HzFromEnv(), 0u);
  ASSERT_EQ(::setenv("FAIRGEN_PROF_HZ", "97", 1), 0);
  EXPECT_EQ(HzFromEnv(), 97u);
  ASSERT_EQ(::setenv("FAIRGEN_PROF_HZ", "0", 1), 0);
  EXPECT_EQ(HzFromEnv(), 0u);
  ASSERT_EQ(::setenv("FAIRGEN_PROF_HZ", "100000", 1), 0);
  EXPECT_EQ(HzFromEnv(), 0u);
  ASSERT_EQ(::setenv("FAIRGEN_PROF_HZ", "notanumber", 1), 0);
  EXPECT_EQ(HzFromEnv(), 0u);
  ASSERT_EQ(::unsetenv("FAIRGEN_PROF_HZ"), 0);
}

}  // namespace
}  // namespace fairgen::prof
