#include "common/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
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

// Minimal blocking HTTP GET against 127.0.0.1:<port>; returns the whole
// response (status line + headers + body), empty on connect failure.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
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

TEST(WriteFileAtomicTest, WritesAndReplacesWithoutTmpResidue) {
  std::string path = testing::TempDir() + "/fairgen_atomic_test.txt";
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

// The exposition must sanitize metric names (dots -> underscores, a
// `fairgen_` prefix), emit cumulative histogram buckets, `_sum`/`_count`,
// and a separate `<name>_quantile` gauge family.
TEST(PrometheusTextTest, ExposesRegistryMetrics) {
  auto& registry = metrics::MetricsRegistry::Global();
  registry.GetCounter("telemetry_test.hits").Increment(3);
  registry.GetGauge("telemetry_test.level").Set(2.5);
  auto& histogram = registry.GetHistogram("telemetry_test.latency",
                                          {1.0, 10.0, 100.0});
  histogram.Observe(0.5);
  histogram.Observe(5.0);
  histogram.Observe(50.0);
  histogram.Observe(5000.0);  // overflow bucket
  registry.GetSeries("telemetry_test.curve").Append(0, 1.0);
  registry.GetSeries("telemetry_test.curve").Append(1, 4.0);

  const std::string text = PrometheusText();

  // Process gauges straight from memprobe.
  EXPECT_NE(text.find("# TYPE fairgen_process_rss_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_process_rss_bytes "), std::string::npos);

  EXPECT_NE(text.find("# TYPE fairgen_telemetry_test_hits counter"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_hits 3"), std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_level 2.5"),
            std::string::npos);

  // Buckets are cumulative: 1, 2, 3 then +Inf = 4.
  EXPECT_NE(text.find("# TYPE fairgen_telemetry_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_latency_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("fairgen_telemetry_test_latency_bucket{le=\"100\"} 3"),
      std::string::npos);
  EXPECT_NE(
      text.find("fairgen_telemetry_test_latency_bucket{le=\"+Inf\"} 4"),
      std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_latency_count 4"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_latency_sum "),
            std::string::npos);

  // Quantiles live in their own gauge family (a family cannot mix
  // histogram and summary samples).
  EXPECT_NE(
      text.find("# TYPE fairgen_telemetry_test_latency_quantile gauge"),
      std::string::npos);
  EXPECT_NE(
      text.find("fairgen_telemetry_test_latency_quantile{quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find(
                "fairgen_telemetry_test_latency_quantile{quantile=\"0.99\"}"),
            std::string::npos);

  // Series expose their last value as a gauge.
  EXPECT_NE(text.find("# TYPE fairgen_telemetry_test_curve gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fairgen_telemetry_test_curve 4"), std::string::npos);
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

TEST_F(PublisherTest, LifecycleWritesManifestSnapshotAndProm) {
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
  EXPECT_TRUE(FileExists(publisher.run_dir() + "/metrics.prom"));

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

TEST_F(PublisherTest, ServesPrometheusAndSnapshotOverHttp) {
  PublisherOptions options;
  options.dir = MakeParentDir("http");
  options.interval_ms = 50;
  options.serve = true;
  options.port = 0;  // ephemeral
  Publisher publisher(options);
  ASSERT_TRUE(publisher.Init().ok());
  ASSERT_NE(publisher.bound_port(), 0);

  std::string metrics = HttpGet(publisher.bound_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("fairgen_process_rss_bytes"), std::string::npos);

  std::string snapshot = HttpGet(publisher.bound_port(), "/snapshot");
  EXPECT_NE(snapshot.find("200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("\"run_id\""), std::string::npos);

  std::string missing = HttpGet(publisher.bound_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const uint16_t port = publisher.bound_port();
  publisher.Stop(0);
  // The listener is down after Stop.
  EXPECT_EQ(HttpGet(port, "/metrics"), "");
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

  // Init journaled its own config/run_start record (already flushed with
  // snapshot 0); the crash flush appends the buffered pair plus the
  // crash record, in emission order.
  std::ifstream in(publisher.run_dir() + "/events.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  auto start = json::Parse(lines[0]);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start->GetString("name"), "run_start");
  auto fit = json::Parse(lines[1]);
  auto generate = json::Parse(lines[2]);
  auto crash = json::Parse(lines[3]);
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

  // Init already flushed its config/run_start record; count deltas from
  // there.
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

}  // namespace
}  // namespace fairgen::telemetry
