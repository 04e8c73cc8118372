#include "common/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <fcntl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "common/events.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/prof.h"
#include "common/strings.h"
#include "common/trace.h"
#include "common/watchdog.h"

namespace fairgen {
namespace telemetry {

namespace {

// %.17g round-trips every finite double through text exactly.
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string JsonQuote(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

// Maps a dotted metric name onto the Prometheus name charset
// [a-zA-Z0-9_:] and prefixes the exporter namespace.
std::string PrometheusName(const std::string& name) {
  std::string out = "fairgen_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// Creates `path` and any missing parents (mkdir -p).
Status MkDirs(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  for (const std::string& part : StrSplit(path, '/')) {
    partial += part;
    partial.push_back('/');
    if (part.empty()) continue;  // leading '/' or '//'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir failed: " + partial + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace

std::string GitRevision() {
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string rev;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) rev = buf;
  ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

HostInfo GetHostInfo() {
  HostInfo info;
  char hostname[256] = {0};
  info.hostname = ::gethostname(hostname, sizeof(hostname) - 1) == 0
                      ? hostname
                      : "unknown";
  struct utsname uts;
  if (::uname(&uts) == 0) {
    info.os = std::string(uts.sysname) + " " + uts.release;
  } else {
    info.os = "unknown";
  }
  info.nproc = std::thread::hardware_concurrency();
  return info;
}

uint64_t UnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string PrometheusText() {
  std::string out;
  out.reserve(4096);

  // Process memory, read directly from the probes: the publisher must not
  // mutate the registry (observation-only), so these do not go through
  // memprobe::Sample.
  struct {
    const char* name;
    double value;
  } process[] = {
      {"fairgen_process_rss_bytes",
       static_cast<double>(memprobe::CurrentRssBytes())},
      {"fairgen_process_peak_rss_bytes",
       static_cast<double>(memprobe::PeakRssBytes())},
      {"fairgen_nn_bytes_live",
       static_cast<double>(memprobe::NnBytes().live())},
      {"fairgen_nn_bytes_peak",
       static_cast<double>(memprobe::NnBytes().peak())},
  };
  for (const auto& p : process) {
    out += std::string("# TYPE ") + p.name + " gauge\n";
    out += std::string(p.name) + " " + FormatValue(p.value) + "\n";
  }

  // Per-category hardware-counter annotations from profiled spans
  // (common/prof.h). Families appear only when at least one span carried
  // a valid perf_event reading — on hosts without perf_event the
  // exposition is byte-identical to an unprofiled run.
  {
    const auto categories = trace::Tracer::Global().SummarizeByCategory();
    const char* kFamilies[] = {
        "fairgen_prof_span_cycles", "fairgen_prof_span_instructions",
        "fairgen_prof_span_cache_misses", "fairgen_prof_span_branch_misses",
        "fairgen_prof_span_ipc"};
    // Family-outer iteration: the exposition format requires all samples
    // of one family in a single group under its # TYPE line.
    for (size_t f = 0; f < 5; ++f) {
      std::string family_out;
      for (const auto& [category, summary] : categories) {
        if (summary.hw_count == 0) continue;
        const double values[5] = {
            static_cast<double>(summary.cycles),
            static_cast<double>(summary.instructions),
            static_cast<double>(summary.cache_misses),
            static_cast<double>(summary.branch_misses),
            summary.cycles > 0
                ? static_cast<double>(summary.instructions) /
                      static_cast<double>(summary.cycles)
                : 0.0};
        family_out += std::string(kFamilies[f]) + "{cat=\"" + category +
                      "\"} " + FormatValue(values[f]) + "\n";
      }
      if (!family_out.empty()) {
        out += std::string("# TYPE ") + kFamilies[f] + " gauge\n";
        out += family_out;
      }
    }
  }

  const metrics::MetricsRegistry& registry =
      metrics::MetricsRegistry::Global();
  const std::vector<metrics::MetricSnapshot> snaps = registry.Snapshot();

  // Watchdog alert counters as one labeled family,
  // `fairgen_alerts_total{rule="..."}`, assembled from the
  // `alerts.rule.<name>` registry counters (the registry itself has no
  // label support). Absent entirely until the first alert fires, so an
  // alert-free run's exposition is unchanged.
  {
    std::string family_out;
    for (const metrics::MetricSnapshot& snap : snaps) {
      if (!StrStartsWith(snap.name, "alerts.rule.")) continue;
      // A zero-valued rule counter only exists after a registry reset
      // (tests); a real alert-free run never materializes it, so keep
      // the family's absent-until-first-alert contract either way.
      if (snap.fields[0].second == 0.0) continue;
      family_out += "fairgen_alerts_total{rule=\"" +
                    JsonEscape(snap.name.substr(12)) + "\"} " +
                    FormatValue(snap.fields[0].second) + "\n";
    }
    if (!family_out.empty()) {
      out += "# TYPE fairgen_alerts_total counter\n";
      out += family_out;
    }
  }

  for (const metrics::MetricSnapshot& snap : snaps) {
    // The alert counters were already emitted as the labeled family
    // above; re-emitting them under their dotted names would double
    // count in a sum() over the exposition.
    if (StrStartsWith(snap.name, "alerts.")) continue;
    const std::string name = PrometheusName(snap.name);
    if (snap.type == "counter" || snap.type == "gauge") {
      out += "# TYPE " + name + " " + snap.type + "\n";
      out += name + " " + FormatValue(snap.fields[0].second) + "\n";
    } else if (snap.type == "histogram") {
      // fields: le_<bound>..., le_inf, sum, count, p50, p95, p99 — emit
      // the histogram family with *cumulative* bucket counts, then the
      // quantile estimates as their own gauge family (a family cannot mix
      // histogram and summary samples).
      out += "# TYPE " + name + " histogram\n";
      double cumulative = 0.0;
      double sum = 0.0, count = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
      for (const auto& [field, value] : snap.fields) {
        if (StrStartsWith(field, "le_")) {
          cumulative += value;
          const std::string le =
              field == "le_inf" ? "+Inf" : field.substr(3);
          out += name + "_bucket{le=\"" + le + "\"} " +
                 FormatValue(cumulative) + "\n";
        } else if (field == "sum") {
          sum = value;
        } else if (field == "count") {
          count = value;
        } else if (field == "p50") {
          p50 = value;
        } else if (field == "p95") {
          p95 = value;
        } else if (field == "p99") {
          p99 = value;
        }
      }
      out += name + "_sum " + FormatValue(sum) + "\n";
      out += name + "_count " + FormatValue(count) + "\n";
      out += "# TYPE " + name + "_quantile gauge\n";
      out += name + "_quantile{quantile=\"0.5\"} " + FormatValue(p50) + "\n";
      out += name + "_quantile{quantile=\"0.95\"} " + FormatValue(p95) + "\n";
      out += name + "_quantile{quantile=\"0.99\"} " + FormatValue(p99) + "\n";
    } else if (snap.type == "series") {
      // A scrape sees the training curve as its latest point; the full
      // history stays in snapshot.json / the registry export.
      out += "# TYPE " + name + " gauge\n";
      const double last =
          snap.fields.empty() ? 0.0 : snap.fields.back().second;
      out += name + " " + FormatValue(last) + "\n";
    }
  }
  return out;
}

std::string SnapshotJson(const std::string& run_id, uint64_t sequence,
                         uint64_t start_unix_ms) {
  const uint64_t now_ms = UnixMillis();
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"run_id\": " + JsonQuote(run_id) + ",\n";
  out += "  \"sequence\": " + std::to_string(sequence) + ",\n";
  out += "  \"unix_ms\": " + std::to_string(now_ms) + ",\n";
  out += "  \"uptime_ms\": " +
         std::to_string(now_ms >= start_unix_ms ? now_ms - start_unix_ms
                                                : 0) +
         ",\n";
  out += "  \"memory\": {\"rss_bytes\": " +
         std::to_string(memprobe::CurrentRssBytes()) +
         ", \"peak_rss_bytes\": " + std::to_string(memprobe::PeakRssBytes()) +
         ", \"nn_bytes_live\": " + std::to_string(memprobe::NnBytes().live()) +
         ", \"nn_bytes_peak\": " + std::to_string(memprobe::NnBytes().peak()) +
         "},\n";

  const trace::Tracer& tracer = trace::Tracer::Global();
  out += "  \"spans\": {";
  bool first = true;
  for (const auto& [category, summary] : tracer.SummarizeByCategory()) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(category) + ": {\"count\": " +
           std::to_string(summary.count) +
           ", \"wall_ns\": " + std::to_string(summary.wall_ns) +
           ", \"cpu_ns\": " + std::to_string(summary.cpu_ns);
    if (summary.hw_count > 0) {
      // Hardware-counter aggregate of the spans profiled with perf_event
      // available; absent (not zero) otherwise, so consumers can
      // distinguish "no misses" from "not measured".
      out += ", \"hw_spans\": " + std::to_string(summary.hw_count) +
             ", \"cycles\": " + std::to_string(summary.cycles) +
             ", \"instructions\": " + std::to_string(summary.instructions) +
             ", \"cache_misses\": " + std::to_string(summary.cache_misses) +
             ", \"branch_misses\": " + std::to_string(summary.branch_misses);
    }
    out += "}";
  }
  out += "},\n";
  out += "  \"spans_dropped\": " + std::to_string(tracer.dropped()) + ",\n";

  // The registry export is itself a JSON object; embed it verbatim (it
  // ends with a newline — trim so the document stays tidy).
  std::string metrics_json = metrics::MetricsRegistry::Global().ToJson();
  while (!metrics_json.empty() && metrics_json.back() == '\n') {
    metrics_json.pop_back();
  }
  out += "  \"metrics\": " + metrics_json + "\n";
  out += "}\n";
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& text) {
  // Shared temp+fsync+rename contract (common/fileio.h) — also used by
  // the nn/core checkpoint writers.
  return fairgen::WriteFileAtomic(path, text);
}

Publisher::Publisher(PublisherOptions options)
    : options_(std::move(options)) {}

Publisher::~Publisher() {
  if (running()) Stop(0);
  // After a crash flush Stop() is a deliberate no-op (the crash verdict
  // is authoritative and the flush may be on a signal handler's stack),
  // but a stack-owned publisher still has to join its threads before
  // they are destroyed. The destructor only ever runs in normal context:
  // the global instance is leaked precisely so signal handlers never
  // race it.
  if (snapshot_thread_.joinable() || server_thread_.joinable()) {
    running_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    if (snapshot_thread_.joinable()) snapshot_thread_.join();
    if (server_thread_.joinable()) server_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status Publisher::Init() {
  if (running()) return Status::FailedPrecondition("publisher already running");
  FAIRGEN_RETURN_NOT_OK(MkDirs(options_.dir));

  // Derive the run id and claim its directory; on a collision (two runs
  // starting within the same second on one host is rare but legal) append
  // a disambiguating suffix.
  std::string base_id = options_.run_id;
  if (base_id.empty()) {
    char stamp[32] = {0};
    std::time_t now = std::time(nullptr);
    struct tm utc;
    ::gmtime_r(&now, &utc);
    std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%S", &utc);
    base_id = std::string(stamp) + "-" + std::to_string(::getpid());
  }
  run_id_ = base_id;
  for (int attempt = 1;; ++attempt) {
    run_dir_ = options_.dir + "/" + run_id_;
    if (::mkdir(run_dir_.c_str(), 0755) == 0) break;
    if (errno != EEXIST) {
      return Status::IOError("mkdir failed: " + run_dir_ + ": " +
                             std::strerror(errno));
    }
    if (attempt > 64) {
      return Status::AlreadyExists("run dir exists: " + run_dir_);
    }
    run_id_ = base_id + "-" + std::to_string(attempt);
  }

  start_unix_ms_ = UnixMillis();
  stop_.store(false, std::memory_order_relaxed);
  sequence_.store(0, std::memory_order_relaxed);
  // This publisher flushes the journal, so from here on it keeps records.
  events::Journal::Global().SetBuffering(true);
  {
    events::Event event;
    event.type = events::Type::kConfig;
    event.name = "run_start";
    event.message = options_.binary;
    event.fields = {
        {"seed", static_cast<double>(options_.seed)},
        {"threads", static_cast<double>(options_.threads)},
        {"interval_ms", static_cast<double>(options_.interval_ms)}};
    events::Journal::Global().Emit(std::move(event));
  }
  FAIRGEN_RETURN_NOT_OK(WriteManifest(false, -1, 0));
  if (options_.serve) FAIRGEN_RETURN_NOT_OK(StartServer());
  running_.store(true, std::memory_order_relaxed);
  FAIRGEN_RETURN_NOT_OK(SnapshotNow());

  if (options_.interval_ms > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  if (options_.serve) {
    server_thread_ = std::thread([this] { ServerLoop(); });
  }
  FAIRGEN_LOG(INFO) << "telemetry: run " << run_id_ << " -> " << run_dir_
                    << (options_.serve
                            ? " (http://127.0.0.1:" +
                                  std::to_string(bound_port_) + "/metrics)"
                            : "");
  return Status::OK();
}

Status Publisher::WriteManifest(bool finalized, int exit_status,
                                uint64_t end_unix_ms) {
  const HostInfo host = GetHostInfo();
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"run_id\": " + JsonQuote(run_id_) + ",\n";
  out += "  \"binary\": " + JsonQuote(options_.binary) + ",\n";
  out += "  \"argv\": [";
  for (size_t i = 0; i < options_.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(options_.args[i]);
  }
  out += "],\n";
  out += "  \"git_rev\": " + JsonQuote(GitRevision()) + ",\n";
  out += "  \"seed\": " + std::to_string(options_.seed) + ",\n";
  out += "  \"threads\": " + std::to_string(options_.threads) + ",\n";
  out += "  \"pid\": " + std::to_string(::getpid()) + ",\n";
  out += "  \"host\": {\"hostname\": " + JsonQuote(host.hostname) +
         ", \"os\": " + JsonQuote(host.os) +
         ", \"nproc\": " + std::to_string(host.nproc) + "},\n";
  out += "  \"start_unix_ms\": " + std::to_string(start_unix_ms_) + ",\n";
  out += "  \"interval_ms\": " + std::to_string(options_.interval_ms) + ",\n";
  out += "  \"prometheus_port\": " + std::to_string(bound_port_) + ",\n";
  out += "  \"snapshots\": " +
         std::to_string(sequence_.load(std::memory_order_relaxed)) + ",\n";
  // exit_status is -1 while the run is live; the crash-flush and Stop
  // paths rewrite the manifest with the real status and finalized: true.
  out += "  \"end_unix_ms\": " + std::to_string(end_unix_ms) + ",\n";
  out += "  \"exit_status\": " + std::to_string(exit_status) + ",\n";
  out += std::string("  \"finalized\": ") + (finalized ? "true" : "false") +
         "\n";
  out += "}\n";
  return WriteFileAtomic(run_dir_ + "/run.json", out);
}

Status Publisher::WriteSnapshotFiles() {
  // Watchdog evaluation happens on the publisher tick, before mu_ is
  // taken: a fatal rule raises SIGTERM on this thread, whose handler only
  // wakes the flush thread; that CrashFlush then waits for mu_, so this
  // tick's snapshot lands before the crash record.
  watchdog::Watchdog::Global().EvaluateTick();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = sequence_.fetch_add(1, std::memory_order_relaxed);
  // The publisher tick is the profiler's ring-drain heartbeat: samples
  // move out of the per-thread SPSC rings here, off the signal path, and
  // the collapsed-stack artifacts land next to the snapshot. A run that
  // never profiled (or never collected a sample) writes nothing extra.
  prof::Profiler& profiler = prof::Profiler::Global();
  if (profiler.running() || profiler.samples() > 0) {
    // Drain also refreshes the prof.* counters/gauges, so the snapshot
    // and Prometheus exports below see up-to-date sample totals.
    profiler.Drain();
    Status prof_status = profiler.WriteArtifacts(run_dir_);
    if (!prof_status.ok()) {
      FAIRGEN_LOG(WARNING) << "profile artifact write failed: "
                           << prof_status.ToString();
    }
  }
  FAIRGEN_RETURN_NOT_OK(WriteFileAtomic(
      run_dir_ + "/snapshot.json", SnapshotJson(run_id_, seq,
                                                start_unix_ms_)));
  FAIRGEN_RETURN_NOT_OK(
      WriteFileAtomic(run_dir_ + "/metrics.prom", PrometheusText()));
  // Drain buffered journal records into the append-only event log. Every
  // tick flushes, so events.jsonl trails the live run by at most one
  // interval.
  return events::Journal::Global().FlushTo(run_dir_ + "/events.jsonl");
}

Status Publisher::SnapshotNow() {
  if (run_dir_.empty()) {
    return Status::FailedPrecondition("publisher not initialized");
  }
  return WriteSnapshotFiles();
}

void Publisher::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
    if (stop_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    Status s = WriteSnapshotFiles();
    if (!s.ok()) {
      FAIRGEN_LOG(WARNING) << "telemetry snapshot failed: " << s.ToString();
    }
    lock.lock();
  }
}

Status Publisher::StartServer() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // Localhost only — run telemetry must never be reachable off-host.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    Status s = Status::IOError(
        "cannot listen on 127.0.0.1:" + std::to_string(options_.port) +
        ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    bound_port_ = ntohs(addr.sin_port);
  }
  return Status::OK();
}

void Publisher::ServerLoop() {
  // Minimal HTTP/1.0 responder: poll with a short timeout so Stop() is
  // honored promptly, one request per connection, Connection: close.
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    char request[2048] = {0};
    const ssize_t got = ::read(client, request, sizeof(request) - 1);
    std::string target = "/";
    if (got > 0) {
      // "GET <target> HTTP/1.x" — everything else 404s below.
      const char* sp1 = std::strchr(request, ' ');
      const char* sp2 = sp1 ? std::strchr(sp1 + 1, ' ') : nullptr;
      if (sp1 != nullptr && sp2 != nullptr) {
        target.assign(sp1 + 1, sp2);
      }
    }

    std::string body;
    std::string content_type = "text/plain; charset=utf-8";
    int code = 200;
    if (target == "/metrics" || target == "/") {
      body = PrometheusText();
      content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (target == "/snapshot") {
      body = SnapshotJson(run_id_,
                          sequence_.load(std::memory_order_relaxed),
                          start_unix_ms_);
      content_type = "application/json";
    } else {
      code = 404;
      body = "not found\n";
    }
    std::string response =
        std::string("HTTP/1.0 ") + (code == 200 ? "200 OK" : "404 Not Found") +
        "\r\nContent-Type: " + content_type +
        "\r\nContent-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::write(client, response.data() + sent, response.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(client);
  }
}

void Publisher::Stop(int exit_status) {
  // A crash flush already wrote the authoritative manifest (128+sig) and
  // may be running on a signal handler's stack — do not join threads or
  // rewrite the manifest underneath it.
  if (crash_flushing_.load(std::memory_order_acquire)) return;
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  if (server_thread_.joinable()) server_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    events::Event event;
    event.type = events::Type::kConfig;
    event.name = "run_end";
    event.fields = {{"exit_status", static_cast<double>(exit_status)}};
    events::Journal::Global().Emit(std::move(event));
  }
  Status s = WriteSnapshotFiles();
  if (s.ok()) s = WriteManifest(true, exit_status, UnixMillis());
  if (!s.ok()) {
    FAIRGEN_LOG(WARNING) << "telemetry finalize failed: " << s.ToString();
  }
}

void Publisher::CrashFlush(int exit_status, bool from_signal_handler) {
  if (run_dir_.empty()) return;
  if (crash_flushing_.exchange(true, std::memory_order_acq_rel)) return;
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (from_signal_handler) {
    // Skips the snapshot mutex (the interrupted thread might hold it) —
    // WriteFileAtomic's rename keeps even a racing periodic snapshot from
    // tearing the file. The same hazard applies to the registry/series/
    // tracer mutexes the exports read under (a FATAL check aborts while
    // *holding* the registry lock), so the flush runs in best-effort read
    // mode: contended sections come out empty instead of deadlocking the
    // dying process.
    metrics::SetBestEffortReads(true);
  } else {
    // Normal context: every lock holder runs on and releases. Holding the
    // snapshot mutex and stopping the periodic loop makes this the last
    // write into the run directory.
    lock.lock();
    stop_.store(true, std::memory_order_relaxed);
  }
  const uint64_t seq = sequence_.fetch_add(1, std::memory_order_relaxed);
  WriteFileAtomic(run_dir_ + "/snapshot.json",
                  SnapshotJson(run_id_, seq, start_unix_ms_));
  WriteFileAtomic(run_dir_ + "/metrics.prom", PrometheusText());
  // The event journal flushes *before* the manifest is finalized, so a
  // consumer that observes `finalized: true` can rely on events.jsonl
  // holding everything buffered up to the crash — including this crash
  // record. Both calls degrade (skip) if the interrupted thread holds
  // the journal lock.
  {
    events::Event event;
    event.type = events::Type::kCrash;
    event.name = "signal_flush";
    event.fields = {{"exit_status", static_cast<double>(exit_status)}};
    events::Journal::Global().Emit(std::move(event));
    events::Journal::Global().FlushTo(run_dir_ + "/events.jsonl");
  }
  WriteManifest(true, exit_status, UnixMillis());
  if (from_signal_handler) metrics::SetBestEffortReads(false);
}

namespace {

std::atomic<Publisher*> g_publisher{nullptr};

}  // namespace

Result<Publisher*> Publisher::StartGlobal(PublisherOptions options) {
  Publisher* existing = g_publisher.load(std::memory_order_acquire);
  if (existing != nullptr && existing->running()) {
    return Status::FailedPrecondition("global publisher already running");
  }
  // Leaked on purpose: signal handlers and atexit hooks may reach the
  // publisher during shutdown, after statics start being destroyed.
  Publisher* publisher = new Publisher(std::move(options));
  Status s = publisher->Init();
  if (!s.ok()) {
    delete publisher;
    return s;
  }
  g_publisher.store(publisher, std::memory_order_release);
  return publisher;
}

Publisher* Publisher::Get() {
  return g_publisher.load(std::memory_order_acquire);
}

void Publisher::StopGlobal(int exit_status) {
  Publisher* publisher = g_publisher.load(std::memory_order_acquire);
  if (publisher != nullptr) publisher->Stop(exit_status);
}

namespace {

void (*g_extra_flush)() = nullptr;
// Who owns the end of the process. The first signal moves it from kIdle
// to kFlushing and its flush ends the process; a normal exit moves it to
// kExiting (EndSignalFlush) and ends the process with its own status.
enum FlushState : int { kIdle, kFlushing, kExiting };
std::atomic<int> g_flush_state{kIdle};
// Set while the SIGABRT flush runs inside its handler.
std::atomic<bool> g_flush_in_handler{false};
// Self-pipe from the SIGINT/SIGTERM handler to the flush thread.
int g_flush_pipe[2] = {-1, -1};

// Claims the end of the process for the flush of `sig`. Returns false
// when the exit path already owns it (the signal is then ignored, and the
// exit, already under way, keeps its own status). A signal that arrives
// while a flush runs (e.g. a second SIGTERM) gives up and dies with the
// right status.
bool ClaimFlush(int sig) {
  int state = kIdle;
  if (g_flush_state.compare_exchange_strong(state, kFlushing)) return true;
  if (state == kFlushing) ::_exit(128 + sig);
  return false;
}

void RunFlush(int sig, bool from_signal_handler) {
  Publisher* publisher = Publisher::Get();
  if (publisher != nullptr) {
    publisher->CrashFlush(128 + sig, from_signal_handler);
  }
  if (g_extra_flush != nullptr) g_extra_flush();
}

// Restores the default disposition and re-raises so the wait status still
// reports death-by-signal.
void DieBySignal(int sig) {
  ::signal(sig, SIG_DFL);
  sigset_t unblock;
  sigemptyset(&unblock);
  sigaddset(&unblock, sig);
  ::pthread_sigmask(SIG_UNBLOCK, &unblock, nullptr);
  ::raise(sig);
}

// SIGABRT is synchronous: the aborting thread is already dying, so the
// flush runs here, in best-effort mode. (Returning from it during a
// normal exit lets abort() go on and kill the process.)
void InlineFlushHandler(int sig) {
  if (!ClaimFlush(sig)) return;
  g_flush_in_handler.store(true);
  RunFlush(sig, /*from_signal_handler=*/true);
  DieBySignal(sig);
}

// SIGINT/SIGTERM may interrupt a thread inside malloc or holding any lock
// the flush needs, so the handler only wakes the flush thread; the
// interrupted thread runs on and releases what it holds.
void DeferredFlushHandler(int sig) {
  if (!ClaimFlush(sig)) return;
  const int saved_errno = errno;
  const unsigned char byte = static_cast<unsigned char>(sig);
  while (::write(g_flush_pipe[1], &byte, 1) < 0 && errno == EINTR) {
  }
  errno = saved_errno;
}

void FlushThreadMain() {
  unsigned char byte = 0;
  ssize_t got;
  do {
    got = ::read(g_flush_pipe[0], &byte, 1);
  } while (got < 0 && errno == EINTR);
  if (got != 1) return;
  RunFlush(byte, /*from_signal_handler=*/false);
  DieBySignal(byte);
}

}  // namespace

bool FlushingInSignalHandler() { return g_flush_in_handler.load(); }

void EndSignalFlush() {
  int state = kIdle;
  if (g_flush_state.compare_exchange_strong(state, kExiting) ||
      state == kExiting) {
    return;
  }
  // A flush is running on another thread; it ends the process by
  // re-raising its signal.
  for (;;) ::pause();
}

void InstallSignalFlush(void (*extra_flush)()) {
  g_extra_flush = extra_flush;
  static const bool at_exit_registered = std::atexit(EndSignalFlush) == 0;
  (void)at_exit_registered;
  if (g_flush_pipe[0] < 0 && ::pipe2(g_flush_pipe, O_CLOEXEC) == 0) {
    std::thread(FlushThreadMain).detach();
  }
  const bool deferred = g_flush_pipe[0] >= 0;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  sigemptyset(&action.sa_mask);
  // The deferred handler returns, so interrupted system calls restart.
  action.sa_flags = SA_RESTART;
  for (int sig : {SIGINT, SIGTERM, SIGABRT}) {
    action.sa_handler = deferred && sig != SIGABRT ? DeferredFlushHandler
                                                   : InlineFlushHandler;
    ::sigaction(sig, &action, nullptr);
  }
}

}  // namespace telemetry
}  // namespace fairgen
