#ifndef FAIRGEN_COMMON_EVENTS_H_
#define FAIRGEN_COMMON_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fairgen {
namespace events {

/// \brief Structured run-event journal: an append-only sequence of typed
/// records (stage transitions, checkpoint writes, alerts, probe results,
/// config, crash) with process-monotonic sequence numbers. Producers call
/// `Journal::Global().Emit(...)` from anywhere; the telemetry Publisher
/// flushes pending records to `<run_dir>/events.jsonl` on every snapshot
/// tick and — via the crash flush — when the process dies on a signal.
///
/// Like the rest of the observability layer, the journal is
/// observation-only: it never draws from an `Rng` and never synchronizes
/// with model code beyond its own mutex, so enabling it cannot change any
/// model output.

/// Record categories. Kept dense so per-type counters can live in a
/// fixed-size atomic array (the watchdog's stall rule reads them as a
/// progress signature without taking the journal lock).
enum class Type : int {
  kStage = 0,    ///< pipeline stage transition (memprobe::Sample sites)
  kCheckpoint,   ///< training checkpoint written
  kAlert,        ///< watchdog rule fired (severity: warn | fatal)
  kProbe,        ///< in-training fairness probe result
  kConfig,       ///< run start/end provenance
  kCrash,        ///< signal-path crash flush
};
inline constexpr int kNumTypes = 6;

/// Stable wire name of `type` ("stage", "checkpoint", "alert", "probe",
/// "config", "crash").
const char* TypeName(Type type);

/// \brief One journal record. Producers fill everything except `seq` and
/// `unix_ms`, which `Journal::Emit` assigns atomically with the append so
/// sequence numbers are strictly increasing in file order.
struct Event {
  Type type = Type::kStage;
  std::string name;      ///< record id within the type (rule, stage, ...)
  std::string severity;  ///< alerts only: "warn" | "fatal"
  std::string message;   ///< optional human-readable detail
  double epoch = -1.0;   ///< training cycle when known, -1 otherwise
  /// Numeric payload, serialized as a JSON object in field order.
  std::vector<std::pair<std::string, double>> fields;
  uint64_t seq = 0;
  uint64_t unix_ms = 0;
};

/// One JSONL line (no trailing newline): `seq`, `unix_ms`, `type` and
/// `name` are always present (the structural contract pinned by
/// tests/golden/events_schema.txt); `severity`/`message` appear when
/// non-empty, `epoch` when >= 0, `fields` always (possibly `{}`).
std::string ToJsonLine(const Event& event);

/// \brief Process-wide buffered journal.
///
/// `Emit` appends to an in-memory pending buffer (once a consumer turns
/// buffering on, see SetBuffering; bounded; overflow drops
/// the new record and counts it) and `FlushTo` appends the buffered lines
/// to a file and clears the buffer — so repeated flushes to the same path
/// produce an append-only file with each record exactly once, in sequence
/// order. Both take the internal mutex through
/// `metrics::BestEffortLock`, so the crash flush (which runs on a signal
/// handler's stack while the interrupted thread may hold the lock)
/// degrades to a skipped flush instead of deadlocking.
class Journal {
 public:
  /// The process-wide journal (created on first use, leaked on purpose —
  /// signal handlers may reach it during shutdown).
  static Journal& Global();

  /// Buffer cap; `Emit` beyond it drops the new record.
  static constexpr size_t kMaxPending = 65536;

  /// Assigns `seq`/`unix_ms`, counts the record and, while buffering is
  /// on, buffers it. Returns the assigned sequence number, or 0 when the
  /// record was dropped (buffer full or journal lock contended during a
  /// crash flush).
  uint64_t Emit(Event event);

  /// Buffering is off until a consumer turns it on: the telemetry
  /// Publisher does when it starts, since it flushes the buffer, and so
  /// does ResetForTest. With it off, records are numbered and counted
  /// (TypeCount still advances) but not kept, so a process that never
  /// publishes telemetry does not hold every record it ever emitted.
  void SetBuffering(bool on);

  /// Appends every pending record to `path` (fsync'd) and clears the
  /// buffer. A contended lock in crash-flush read mode skips silently
  /// (the records stay pending); I/O failures return the error with the
  /// records kept pending.
  Status FlushTo(const std::string& path);

  size_t pending() const;
  /// Total records accepted by `Emit` since start/reset.
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  /// Records dropped on buffer overflow or lock contention.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Accepted records of one type. Lock-free: the watchdog stall rule
  /// polls stage/checkpoint/probe counts as a progress signature.
  uint64_t TypeCount(Type type) const {
    return type_counts_[static_cast<int>(type)].load(
        std::memory_order_relaxed);
  }

  /// Drops pending records, zeroes every counter and turns buffering on
  /// (tests only).
  void ResetForTest();

 private:
  Journal() = default;

  mutable std::mutex mu_;
  std::vector<Event> pending_;  // guarded by mu_
  uint64_t next_seq_ = 1;       // guarded by mu_; seq 0 means "dropped"
  bool buffering_ = false;      // guarded by mu_
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> type_counts_[kNumTypes] = {};
};

}  // namespace events
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_EVENTS_H_
