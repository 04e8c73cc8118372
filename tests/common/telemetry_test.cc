#include "common/telemetry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/events.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/watchdog.h"

namespace fairgen::telemetry {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(TelemetryInfoTest, GitRevisionIsNonEmpty) {
  EXPECT_FALSE(GitRevision().empty());
}

TEST(TelemetryInfoTest, HostInfoIsPopulated) {
  HostInfo info = GetHostInfo();
  EXPECT_FALSE(info.hostname.empty());
  EXPECT_FALSE(info.os.empty());
}

TEST(TelemetryInfoTest, UnixMillisAdvances) {
  const uint64_t a = UnixMillis();
  EXPECT_GT(a, 1'600'000'000'000ull);  // after Sep 2020: a real clock
}

// Pid-unique: a second test process sharing the temp directory must not
// write or remove the same file mid-assert.
TEST(WriteFileAtomicTest, WritesAndReplacesWithoutTmpResidue) {
  std::string path = testing::TempDir() + "/fairgen_atomic_test_" +
                     std::to_string(::getpid()) + ".txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadWholeFile(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadWholeFile(path), "second");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, FailsOnUnwritableDirectory) {
  EXPECT_FALSE(
      WriteFileAtomic("/nonexistent-dir-xyz/file.txt", "data").ok());
}

TEST(SnapshotJsonTest, ParsesAndCarriesCoreFields) {
  auto doc = json::Parse(SnapshotJson("test-run", 7, UnixMillis() - 50));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("run_id", ""), "test-run");
  EXPECT_EQ(doc->GetDouble("sequence", -1), 7.0);
  EXPECT_GE(doc->GetDouble("uptime_ms", -1), 50.0);
  const json::Value* memory = doc->Find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_GT(memory->GetDouble("rss_bytes", 0), 0.0);
  EXPECT_NE(doc->Find("spans"), nullptr);
  EXPECT_NE(doc->Find("metrics"), nullptr);
}

class PublisherTest : public ::testing::Test {
 protected:
  // Pid-unique parent so reruns never collide with stale run dirs in the
  // persistent temp directory (explicit run ids get `-N` suffixed on
  // collision, which would break the ExplicitRunIdIsHonored assertion).
  // Cleared first: runs left by an earlier process with the same pid
  // would collide with this test's run ids.
  std::string MakeParentDir(const std::string& tag) {
    std::string dir = testing::TempDir() + "/fairgen_telemetry_" + tag +
                      "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }
};

TEST_F(PublisherTest, LifecycleWritesManifestAndSnapshot) {
  PublisherOptions options;
  options.dir = MakeParentDir("lifecycle");
  options.interval_ms = 10;
  options.binary = "telemetry_test";
  options.args = {"--flag=1"};
  options.seed = 99;
  options.threads = 2;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  EXPECT_TRUE(publisher.running());
  EXPECT_FALSE(publisher.run_id().empty());

  // Snapshot 0 is synchronous with Init.
  EXPECT_TRUE(FileExists(publisher.run_dir() + "/run.json"));
  EXPECT_TRUE(FileExists(publisher.run_dir() + "/snapshot.json"));

  // Live manifest: not finalized yet.
  {
    auto manifest = json::ParseFile(publisher.run_dir() + "/run.json");
    ASSERT_TRUE(manifest.ok());
    const json::Value* finalized = manifest->Find("finalized");
    ASSERT_NE(finalized, nullptr);
    EXPECT_FALSE(finalized->AsBool());
    EXPECT_EQ(manifest->GetDouble("seed", -1), 99.0);
    EXPECT_EQ(manifest->GetDouble("threads", -1), 2.0);
    EXPECT_EQ(manifest->GetString("binary", ""), "telemetry_test");
  }

  // The periodic thread advances the sequence.
  const uint64_t before = publisher.snapshots_written();
  for (int i = 0; i < 200 && publisher.snapshots_written() <= before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(publisher.snapshots_written(), before);

  publisher.Stop(0);
  EXPECT_FALSE(publisher.running());

  auto manifest = json::ParseFile(publisher.run_dir() + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 0.0);
  EXPECT_GT(manifest->GetDouble("end_unix_ms", 0),
            manifest->GetDouble("start_unix_ms", 1) - 1);

  auto snapshot = json::ParseFile(publisher.run_dir() + "/snapshot.json");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->GetString("run_id", ""), publisher.run_id());

  // One home per signal: the run dir holds the manifest, the snapshot and
  // the event journal, and no second export of the registry.
  for (const auto& entry :
       std::filesystem::directory_iterator(publisher.run_dir())) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "run.json" || name == "snapshot.json" ||
                name == "events.jsonl")
        << "unexpected run-dir file " << name;
  }
}

TEST_F(PublisherTest, StopIsIdempotent) {
  PublisherOptions options;
  options.dir = MakeParentDir("idempotent");
  options.interval_ms = 0;  // no periodic thread
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  publisher.Stop(3);
  publisher.Stop(0);  // must not clobber the first finalization
  auto manifest = json::ParseFile(publisher.run_dir() + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 3.0);
}

TEST_F(PublisherTest, SnapshotNowAdvancesSequenceWithoutThread) {
  PublisherOptions options;
  options.dir = MakeParentDir("manual");
  options.interval_ms = 0;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  const uint64_t before = publisher.snapshots_written();
  ASSERT_TRUE(publisher.SnapshotNow().ok());
  EXPECT_EQ(publisher.snapshots_written(), before + 1);
  publisher.Stop(0);
}

TEST_F(PublisherTest, CrashFlushFinalizesWithoutJoin) {
  PublisherOptions options;
  options.dir = MakeParentDir("crash");
  options.interval_ms = 1000;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  publisher.CrashFlush(137);
  auto manifest = json::ParseFile(publisher.run_dir() + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 137.0);
  // Stop after a crash flush must not rewrite the crash verdict.
  publisher.Stop(0);
  manifest = json::ParseFile(publisher.run_dir() + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->GetDouble("exit_status", -1), 137.0);
}

TEST_F(PublisherTest, GlobalStartStopRoundTrip) {
  PublisherOptions options;
  options.dir = MakeParentDir("global");
  options.interval_ms = 0;
  auto started = Publisher::StartGlobal(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(Publisher::Get(), *started);

  // A second global publisher is rejected while the first runs.
  EXPECT_FALSE(Publisher::StartGlobal(options).ok());

  Publisher::StopGlobal(0);
  EXPECT_FALSE((*started)->running());

  // After StopGlobal a new one may start.
  auto second = Publisher::StartGlobal(options);
  ASSERT_TRUE(second.ok());
  Publisher::StopGlobal(0);
}

TEST_F(PublisherTest, ExplicitRunIdIsHonored) {
  PublisherOptions options;
  options.dir = MakeParentDir("explicit");
  options.interval_ms = 0;
  options.run_id = "my-run";
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  EXPECT_EQ(publisher.run_id(), "my-run");
  EXPECT_TRUE(FileExists(options.dir + "/my-run/run.json"));
  publisher.Stop(0);
}

// Restarting into a parent directory that already holds a run with the
// same id must append a new suffixed run dir, never overwrite: the first
// run's finalized manifest is the crash-forensics record and a restart
// that clobbered it would erase the evidence.
TEST_F(PublisherTest, RunIdCollisionAppendsNewDirAndPreservesOldManifest) {
  PublisherOptions options;
  options.dir = MakeParentDir("collide");
  options.interval_ms = 0;
  options.run_id = "my-run";
  Publisher first(options);
  ASSERT_TRUE(first.Init().ok());
  first.Stop(3);

  Publisher second(options);
  ASSERT_TRUE(second.Init().ok());
  EXPECT_EQ(second.run_id(), "my-run-1");
  EXPECT_EQ(second.run_dir(), options.dir + "/my-run-1");
  second.Stop(0);

  // Both manifests exist, each with its own verdict and run id.
  auto old_manifest = json::ParseFile(options.dir + "/my-run/run.json");
  ASSERT_TRUE(old_manifest.ok());
  EXPECT_EQ(old_manifest->GetString("run_id", ""), "my-run");
  EXPECT_EQ(old_manifest->GetDouble("exit_status", -1), 3.0);
  EXPECT_TRUE(old_manifest->Find("finalized")->AsBool());
  auto new_manifest = json::ParseFile(options.dir + "/my-run-1/run.json");
  ASSERT_TRUE(new_manifest.ok());
  EXPECT_EQ(new_manifest->GetString("run_id", ""), "my-run-1");
  EXPECT_EQ(new_manifest->GetDouble("exit_status", -1), 0.0);
}

// A crash flush with records still buffered in the event journal must
// drain them into events.jsonl *before* the manifest finalizes, with the
// crash record last — `finalized: true` promises a complete journal.
TEST_F(PublisherTest, CrashFlushDrainsEventBufferBeforeFinalizing) {
  events::Journal::Global().ResetForTest();
  PublisherOptions options;
  options.dir = MakeParentDir("crash_events");
  options.interval_ms = 0;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());

  events::Journal::Global().ResetForTest();
  events::Event event;
  event.type = events::Type::kStage;
  event.name = "fit";
  events::Journal::Global().Emit(event);
  event.name = "generate";
  events::Journal::Global().Emit(event);

  publisher.CrashFlush(137);
  EXPECT_EQ(events::Journal::Global().pending(), 0u);

  // Init journals nothing (run.json is the run's provenance); the crash
  // flush appends the buffered pair plus the crash record, in emission
  // order.
  std::ifstream in(publisher.run_dir() + "/events.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  auto fit = json::Parse(lines[0]);
  auto generate = json::Parse(lines[1]);
  auto crash = json::Parse(lines[2]);
  ASSERT_TRUE(fit.ok() && generate.ok() && crash.ok());
  EXPECT_EQ(fit->GetString("name"), "fit");
  EXPECT_EQ(generate->GetString("name"), "generate");
  EXPECT_EQ(crash->GetString("type"), "crash");
  EXPECT_EQ(crash->GetString("name"), "signal_flush");
  EXPECT_EQ(crash->Find("fields")->GetDouble("exit_status", -1), 137.0);

  auto manifest = json::ParseFile(publisher.run_dir() + "/run.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->Find("finalized")->AsBool());
  events::Journal::Global().ResetForTest();
}

// Every snapshot tick drains the journal; a tick with nothing new must
// not duplicate previously flushed records in the append-only log.
TEST_F(PublisherTest, SnapshotTicksAppendEventsExactlyOnce) {
  events::Journal::Global().ResetForTest();
  PublisherOptions options;
  options.dir = MakeParentDir("tick_events");
  options.interval_ms = 0;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());

  auto count_lines = [&] {
    std::ifstream in(publisher.run_dir() + "/events.jsonl");
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  };

  // Count deltas from whatever Init's snapshot flushed.
  const size_t base = count_lines();
  events::Journal::Global().ResetForTest();
  events::Event event;
  event.type = events::Type::kProbe;
  event.name = "fairness";
  events::Journal::Global().Emit(event);
  ASSERT_TRUE(publisher.SnapshotNow().ok());
  EXPECT_EQ(count_lines(), base + 1);
  ASSERT_TRUE(publisher.SnapshotNow().ok());  // nothing new buffered
  EXPECT_EQ(count_lines(), base + 1);
  events::Journal::Global().Emit(event);
  ASSERT_TRUE(publisher.SnapshotNow().ok());
  EXPECT_EQ(count_lines(), base + 2);
  publisher.Stop(0);
  events::Journal::Global().ResetForTest();
}

// A tick flushes only the records accepted before its watchdog evaluated
// them, so no record reaches events.jsonl unseen by the watchdog. The
// tick's own alert is therefore written by the next flush, and Stop
// writes whatever its last tick left pending.
TEST_F(PublisherTest, TickFlushesOnlyRecordsItsWatchdogSaw) {
  events::Journal::Global().ResetForTest();
  metrics::MetricsRegistry::Global().ResetValues();
  watchdog::Options wd;
  wd.enabled = true;
  watchdog::Watchdog::Global().Configure(wd);
  PublisherOptions options;
  options.dir = MakeParentDir("tick_watchdog");
  options.interval_ms = 0;
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  const std::string path = publisher.run_dir() + "/events.jsonl";
  auto alerts_on_disk = [&] {
    // No file yet means no record was flushed.
    auto file = events::ReadJournalFile(path);
    size_t n = 0;
    if (!file.ok()) return n;
    for (const events::Event& event : file->events) {
      n += event.type == events::Type::kAlert;
    }
    return n;
  };
  // Every on-disk and pending journal record, so a failing count names
  // the record that moved.
  auto journal_records = [&] {
    std::string out = "events.jsonl:";
    auto file = events::ReadJournalFile(path);
    if (file.ok()) {
      for (const events::Event& event : file->events) {
        out += "\n  " + events::ToJsonLine(event);
      }
    } else {
      out += " " + file.status().ToString();
    }
    out += "\npending:";
    for (int type = 0; type < events::kNumTypes; ++type) {
      events::Journal::Global().VisitPending(
          static_cast<events::Type>(type), [&](const events::Event& event) {
            out += "\n  " + events::ToJsonLine(event);
          });
    }
    return out;
  };

  metrics::MetricsRegistry::Global()
      .GetCounter("trainer.nonfinite_batches")
      .Increment();
  ASSERT_TRUE(publisher.SnapshotNow().ok());  // raises loss_non_finite
  {
    SCOPED_TRACE(journal_records());
    EXPECT_EQ(alerts_on_disk(), 0u);
    EXPECT_EQ(events::Journal::Global().pending(), 1u);
  }
  publisher.Stop(0);
  {
    SCOPED_TRACE(journal_records());
    EXPECT_EQ(alerts_on_disk(), 1u);
    EXPECT_EQ(events::Journal::Global().pending(), 0u);
  }

  watchdog::Watchdog::Global().Configure(watchdog::Options{});
  metrics::MetricsRegistry::Global().ResetValues();
  events::Journal::Global().ResetForTest();
}

}  // namespace
}  // namespace fairgen::telemetry
