#ifndef FAIRGEN_COMMON_EVENTS_H_
#define FAIRGEN_COMMON_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fairgen {
namespace events {

/// \brief Structured run-event journal: an append-only sequence of typed
/// records (stage transitions, checkpoint writes, alerts, probe results,
/// crash) with process-monotonic sequence numbers. Producers call
/// `Journal::Global().Emit(...)` from anywhere; the telemetry Publisher
/// flushes pending records to `<run_dir>/events.jsonl` on every snapshot
/// tick and — via the crash flush — when the process dies on a signal.
///
/// The journal is the one home of these discrete records: no metrics
/// series, gauge or counter repeats them. In-process readers (the
/// watchdog) visit pending records; post-hoc readers (`fairgen_report`,
/// `fairgen_doctor`) read events.jsonl back through `ReadJournalFile`.
///
/// Like the rest of the observability layer, the journal is
/// observation-only: it never draws from an `Rng` and never synchronizes
/// with model code beyond its own mutex, so enabling it cannot change any
/// model output.

/// Record categories. Kept dense so per-type counters can live in a
/// fixed-size atomic array (the watchdog's stall rule reads them as a
/// progress signature without taking the journal lock).
enum class Type : int {
  kStage = 0,    ///< run stage boundary (memprobe::Sample sites)
  kCheckpoint,   ///< training checkpoint written
  kAlert,        ///< watchdog rule fired (severity: warn | fatal)
  kProbe,        ///< in-training fairness probe result
  kCrash,        ///< signal-path crash flush
};
inline constexpr int kNumTypes = 5;

/// Stable wire name of `type` ("stage", "checkpoint", "alert", "probe",
/// "crash").
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

  /// The numeric field `key`, or nullptr when the record does not carry
  /// it (R+ is absent from probes of a run without a protected set).
  const double* Field(std::string_view key) const;
};

/// One JSONL line (no trailing newline): `seq`, `unix_ms`, `type` and
/// `name` are always present (the structural contract pinned by
/// tests/golden/events_schema.txt); `severity`/`message` appear when
/// non-empty, `epoch` when >= 0, `fields` always (possibly `{}`).
std::string ToJsonLine(const Event& event);

/// Parses one line written by `ToJsonLine` back into an `Event`.
/// `InvalidArgument` when the line is not a JSON object, lacks a numeric
/// `seq`/`unix_ms`, a string `type`/`name` or a `fields` object, names an
/// unknown type, or carries a non-numeric field. `fields` come back in key
/// order.
Result<Event> ParseJsonLine(std::string_view line);

/// \brief An events.jsonl file read back: the records that parse, in file
/// order, and the 1-based numbers of the non-blank lines that do not.
struct JournalFile {
  std::vector<Event> events;
  std::vector<size_t> malformed_lines;
};

/// Reads `path` line by line through `ParseJsonLine` (blank lines and a
/// trailing '\r' are ignored). `IOError` when the file cannot be opened.
Result<JournalFile> ReadJournalFile(const std::string& path);

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

  /// Appends the pending records with `seq <= through_seq` to `path`
  /// (fsync'd) and drops them from the buffer; later records stay pending
  /// for the next flush. A contended lock in crash-flush read mode skips
  /// silently (the records stay pending); I/O failures return the error
  /// with the records kept pending.
  Status FlushTo(const std::string& path,
                 uint64_t through_seq = std::numeric_limits<uint64_t>::max());

  /// Calls `visit` on every pending record of `type`, in sequence order,
  /// under the journal lock (`visit` must not call back into the
  /// journal). Visits nothing when the lock is contended in crash-flush
  /// read mode.
  void VisitPending(Type type,
                    const std::function<void(const Event&)>& visit) const;

  /// Sequence number of the newest record accepted so far (0 before the
  /// first). A flush through it writes exactly the records already
  /// accepted, whatever is emitted meanwhile.
  uint64_t last_seq() const;

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
