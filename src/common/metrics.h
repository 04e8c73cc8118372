#ifndef FAIRGEN_COMMON_METRICS_H_
#define FAIRGEN_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fairgen {
namespace metrics {

/// \brief Process-wide switch for metric *mutation*. Registration and
/// export always work; when disabled, Increment/Set/Observe/Append are
/// no-ops, so an A/B run with instrumentation off costs nothing and — by
/// the observation-only contract below — produces bitwise-identical model
/// outputs either way.
void SetEnabled(bool enabled);
bool Enabled();

/// \brief Crash-flush read mode. The telemetry crash flush runs on a
/// signal handler's stack, and the interrupted thread may hold a registry,
/// series, or tracer mutex (a FATAL check inside `GetEntry` aborts with
/// the registry lock held). While this mode is on, the export-side read
/// paths acquire their mutexes with `try_lock` via `BestEffortLock` and
/// degrade to empty results on contention instead of deadlocking.
void SetBestEffortReads(bool on);
bool BestEffortReads();

/// \brief Acquires `mu` — except in crash-flush read mode, where it only
/// tries. Callers must check `owns_lock()` and degrade when it is false.
std::unique_lock<std::mutex> BestEffortLock(std::mutex& mu);

/// \brief Monotonic event count. Increments are relaxed atomic adds, so
/// concurrent updates from `ParallelFor` workers sum exactly (integers
/// commute; no locks on the hot path).
///
/// Observation-only contract (all metric types): instrumentation never
/// draws from an `Rng`, never changes a chunk `grain`, and never
/// synchronizes beyond its own atomics — it cannot reorder the
/// deterministic chunk layout of `common/parallel.h` or perturb any model
/// output. See DESIGN.md, "Observability".
class Counter {
 public:
  /// Adds `delta` to the counter (no-op while metrics are disabled).
  void Increment(uint64_t delta = 1) {
    if (Enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Current count.
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Zeroes the counter (used between A/B phases and in tests).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-written instantaneous value (e.g. walks/sec of the most
/// recent sampling batch). Set/load are single atomic operations.
class Gauge {
 public:
  /// Overwrites the gauge (no-op while metrics are disabled).
  void Set(double value) {
    if (Enabled()) value_.store(value, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram: bucket i counts observations with
/// `value <= bounds[i]`; one overflow bucket catches the rest. Bucket
/// counts and the total count are exact under concurrency (atomic
/// integers); the running sum uses an atomic CAS add, which is exact for
/// counts but — like any unordered float reduction — not
/// order-deterministic. Telemetry only; never feeds back into the model.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one observation (no-op while metrics are disabled). NaN is
  /// rejected (not counted): it would land in the overflow bucket and
  /// poison the running sum.
  void Observe(double value);

  /// Cumulative count of all observations.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of all observed values.
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Count in bucket `i` (the last index is the overflow bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  size_t num_buckets() const { return buckets_.size(); }

  /// Quantile estimate for `q` in [0, 1] by linear interpolation inside
  /// the containing bucket (the `histogram_quantile` rule: the lower edge
  /// of the first bucket is clamped to 0 for positive bounds, and any
  /// quantile landing in the overflow bucket reports the largest finite
  /// bound). 0 when nothing has been observed or `q` is NaN; `q` outside
  /// [0, 1] is clamped. Exported as the p50/p95/p99 snapshot fields so
  /// latency tails are visible without opening a trace.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief One recorded series point. `ts_ns` is the steady-clock offset
/// from the trace epoch at append time — telemetry only (it never feeds
/// back into the model); the Chrome trace export uses it to place the
/// point on the Perfetto counter track next to the spans.
struct SeriesPoint {
  double step = 0.0;
  double value = 0.0;
  uint64_t ts_ns = 0;
};

/// \brief Append-only (step, value) sequence — the per-cycle training
/// curves (NLL, λ, parity regulariser) that the paper's Figures 4–8
/// pipeline consumes. Appended from the serial training loop; a mutex
/// guards the vector for the benefit of concurrent readers.
class Series {
 public:
  /// Appends one point (no-op while metrics are disabled).
  void Append(double step, double value);

  /// Copy of the recorded points in append order.
  std::vector<std::pair<double, double>> points() const;

  /// Points with their append timestamps (for the Chrome trace export).
  std::vector<SeriesPoint> points_with_time() const;

  size_t size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<SeriesPoint> points_;
};

/// \brief One exported metric in flattened form: `fields` holds
/// (field-name, value) pairs — a counter/gauge exports the single field
/// "value"; histograms export "le_<bound>"/"sum"/"count" plus the
/// interpolated "p50"/"p95"/"p99" quantile estimates; series export
/// one field per step. The flattening is what makes the JSON and CSV
/// exports carry identical information (see metrics_test round-trip).
struct MetricSnapshot {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram" | "series"
  std::vector<std::pair<std::string, double>> fields;
};

/// \brief Process-wide registry of named metrics.
///
/// `Get*` registers on first use and returns a stable reference; call
/// sites cache it (`static Counter& c = ...`) so the steady state is one
/// relaxed atomic op per event. Names are dotted paths
/// ("layer.object.event"); re-registering a name with a different type is
/// a programming error and aborts.
class MetricsRegistry {
 public:
  /// The process-wide registry (created on first use).
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `upper_bounds` is used on first registration only.
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds);
  Series& GetSeries(std::string_view name);

  /// Flattened view of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Every registered series with its timestamped points, sorted by name —
  /// the source of the Chrome trace counter tracks.
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>>
  SeriesSnapshot() const;

  /// JSON document: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}, "series": {...}} with name-sorted keys — the
  /// `metrics` object of the telemetry snapshot.json.
  std::string ToJson() const;

  /// Zeroes every metric's value, keeping all registrations (and every
  /// reference handed out) valid.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  struct Entry;
  Entry& GetEntry(std::string_view name, const char* type);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
};

}  // namespace metrics
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_METRICS_H_
