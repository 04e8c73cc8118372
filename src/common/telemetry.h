#ifndef FAIRGEN_COMMON_TELEMETRY_H_
#define FAIRGEN_COMMON_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fairgen {
namespace telemetry {

/// \brief Live run telemetry: a background publisher that turns the
/// metrics registry, the memory probes, and the span tracer into artifacts
/// a human (or a scrape-based monitoring stack) can watch *while* the
/// process runs, plus a per-run manifest tying those artifacts to the
/// config/seed/revision that produced them.
///
/// Everything here is observation-only, like the rest of the
/// observability layer (DESIGN.md §7): the publisher reads metric values
/// through their existing atomics/locks, never draws from an `Rng`, and
/// never touches chunk layouts — enabling it cannot change any model
/// output (pinned by the determinism suite at 1/2/4 threads).

/// Short git revision of the working tree, or "unknown" outside a
/// checkout. Recorded in run manifests and bench result headers so every
/// artifact is attributable to a revision.
std::string GitRevision();

/// \brief Static facts about the machine a run executed on, for the run
/// manifest.
struct HostInfo {
  std::string hostname;  ///< gethostname(), or "unknown"
  std::string os;        ///< uname sysname+release, or "unknown"
  uint32_t nproc = 0;    ///< std::thread::hardware_concurrency()
};
HostInfo GetHostInfo();

/// Milliseconds since the Unix epoch (system clock — telemetry only, never
/// feeds back into the model).
uint64_t UnixMillis();

/// \brief Prometheus text exposition (format 0.0.4) of the process memory
/// probes plus every registered metric, at the moment of the call:
///  - counters/gauges: one sample each, name prefixed `fairgen_` with
///    dots mapped to underscores;
///  - histograms: cumulative `_bucket{le="..."}` samples, `_sum`/`_count`,
///    plus a separate `<name>_quantile{quantile="0.5|0.95|0.99"}` gauge
///    family with the interpolated estimates (tail latency without
///    opening a trace);
///  - series: a gauge holding the most recently appended value.
/// Contract pinned by tests/golden/prometheus_schema.txt.
std::string PrometheusText();

/// \brief The snapshot.json document: schema_version, run id, sequence
/// number, wall-clock stamp, a direct memprobe read (`memory`), the
/// per-category span aggregate (`spans`, with `spans_dropped`), and the
/// full metrics-registry export under `metrics`. This is both the live
/// progress view and — because the publisher rewrites it every tick — the
/// crash record of last resort.
std::string SnapshotJson(const std::string& run_id, uint64_t sequence,
                         uint64_t start_unix_ms);

/// \brief Configuration of one `Publisher`.
struct PublisherOptions {
  /// Parent directory for run directories; created if absent. The
  /// publisher creates `<dir>/<run_id>/` and writes `run.json`,
  /// `snapshot.json` and `metrics.prom` inside it.
  std::string dir;

  /// Serve the Prometheus exposition over HTTP when true. `port` 0 binds
  /// an ephemeral port (reported by `bound_port()` and in the manifest).
  /// The listener binds 127.0.0.1 only — telemetry is never exposed
  /// beyond the host.
  bool serve = false;
  uint16_t port = 0;

  /// Period of the background snapshot (snapshot.json + metrics.prom).
  /// 0 disables the periodic thread; snapshots then happen only at
  /// `SnapshotNow`/`Stop`/crash flush.
  uint32_t interval_ms = 1000;

  /// Manifest provenance: the binary name, its full flag vector, and the
  /// run's seed/thread count.
  std::string binary;
  std::vector<std::string> args;
  uint64_t seed = 0;
  uint32_t threads = 0;

  /// Explicit run id; empty derives `<UTC yyyymmddThhmmss>-<pid>`.
  std::string run_id;
};

/// \brief Background telemetry publisher for one run.
///
/// `Init` creates the run directory, writes the starting manifest
/// (`run.json`, `finalized: false`), takes snapshot 0 and starts the
/// snapshot/server threads. `Stop` takes a final snapshot, finalizes the
/// manifest with the end timestamp and exit status, and joins the
/// threads. The run directory is the unit `fairgen_report` consumes.
class Publisher {
 public:
  explicit Publisher(PublisherOptions options);
  ~Publisher();  ///< Stops with exit status 0 if still running.

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Creates the run dir, writes the manifest and snapshot 0, starts the
  /// background threads. Errors leave no threads running.
  Status Init();

  /// Final snapshot + finalized manifest (`end_unix_ms`, `exit_status`,
  /// `finalized: true`), then joins the threads. Idempotent.
  void Stop(int exit_status);

  /// Takes one snapshot immediately (snapshot.json + metrics.prom).
  Status SnapshotNow();

  /// Crash flush: one last snapshot and a finalized manifest recording
  /// `exit_status`, without joining threads. Re-entrant calls return
  /// immediately. With `from_signal_handler` (the SIGABRT path) it skips
  /// the snapshot mutex and reads the registry best-effort; it is not
  /// strictly async-signal-safe (it allocates), so if the crash
  /// interrupted malloc the previous periodic snapshot already on disk is
  /// the crash record. Otherwise (the deferred SIGINT/SIGTERM flush) it
  /// takes the snapshot mutex and stops the periodic snapshots, so the
  /// crash record is the last write.
  void CrashFlush(int exit_status, bool from_signal_handler = true);

  const std::string& run_id() const { return run_id_; }
  const std::string& run_dir() const { return run_dir_; }
  /// Actual serving port after bind (== options.port unless 0), 0 when
  /// not serving.
  uint16_t bound_port() const { return bound_port_; }
  uint64_t snapshots_written() const {
    return sequence_.load(std::memory_order_relaxed);
  }
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// \name Process-wide instance (the `--telemetry-dir` wiring)
  /// @{
  /// Starts the global publisher; `FailedPrecondition` if one is already
  /// running. The instance is leaked on purpose (signal handlers may
  /// reach it at any point of shutdown).
  static Result<Publisher*> StartGlobal(PublisherOptions options);
  /// The running global publisher, or nullptr.
  static Publisher* Get();
  /// Stops the global publisher if present; safe to call repeatedly.
  static void StopGlobal(int exit_status);
  /// @}

 private:
  Status WriteManifest(bool finalized, int exit_status,
                       uint64_t end_unix_ms);
  Status WriteSnapshotFiles();
  Status StartServer();
  void SnapshotLoop();
  void ServerLoop();

  PublisherOptions options_;
  std::string run_id_;
  std::string run_dir_;
  uint64_t start_unix_ms_ = 0;

  std::atomic<uint64_t> sequence_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> crash_flushing_{false};

  std::mutex mu_;              // guards cv_ wakeups and file writes
  std::condition_variable cv_;
  std::thread snapshot_thread_;
  std::thread server_thread_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
};

/// \brief Installs best-effort SIGINT/SIGTERM/SIGABRT handlers that flush
/// telemetry before the process dies: the global `Publisher` (if any)
/// gets a last snapshot and a finalized manifest with exit status
/// `128 + sig`, then `extra_flush` runs (the `--metrics-out`/`--trace-out`
/// writers that otherwise only fire from `atexit`), and the default
/// disposition is restored and the signal re-raised so the exit status
/// still reports the kill. `extra_flush` may be null. SIGINT/SIGTERM can
/// land on a thread inside malloc or holding a lock the flush needs, so
/// their handler only writes to a self-pipe: a dedicated flush thread
/// (started here) runs the flush in normal context while the interrupted
/// thread runs on. SIGABRT is synchronous and flushes inside its handler —
/// best effort, since the flush allocates, with the publisher's periodic
/// snapshot as the fallback crash record. Also registers EndSignalFlush
/// with `atexit`.
void InstallSignalFlush(void (*extra_flush)());

/// True while the flush runs inside a signal handler (the SIGABRT path),
/// where `extra_flush` must not wait on a lock: the aborting thread may
/// hold it.
bool FlushingInSignalHandler();

/// Marks the start of a normal exit. If a signal flush is already running,
/// blocks until that flush ends the process, so its re-raised signal
/// decides the exit status and nothing is torn down under it. Otherwise
/// a SIGINT/SIGTERM that arrives from here on is ignored: the exit is
/// under way and keeps its own status, matching the run manifest. A
/// program calls it when its work is done, before writing its own final
/// telemetry, so the exit path and a flush never run together; later
/// calls return at once.
void EndSignalFlush();

}  // namespace telemetry
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_TELEMETRY_H_
