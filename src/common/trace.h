#ifndef FAIRGEN_COMMON_TRACE_H_
#define FAIRGEN_COMMON_TRACE_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fairgen {
namespace trace {

/// \brief Pipeline stage a span belongs to. Categories become the `cat`
/// field of the Chrome trace export, so Perfetto can filter/color the
/// walk, training, embedding, generation, assembly and evaluation tracks
/// independently.
enum class Category : uint8_t {
  kGeneral = 0,
  kWalk,
  kTrain,
  kEmbed,
  kGenerate,
  kAssemble,
  kEval,
};

/// Stable lowercase name of a category ("walk", "train", ...).
std::string_view CategoryName(Category category);

/// \brief One completed span: a named scope with wall- and CPU-clock
/// durations, its nesting depth on the recording thread, and a stable
/// per-thread index (assigned in first-span order, not an OS id).
struct SpanRecord {
  std::string name;
  Category category = Category::kGeneral;
  uint64_t start_ns = 0;      ///< wall-clock offset from tracer epoch
  uint64_t wall_ns = 0;       ///< wall-clock duration
  uint64_t cpu_ns = 0;        ///< thread CPU-time duration
  uint64_t cpu_start_ns = 0;  ///< absolute CLOCK_THREAD_CPUTIME_ID at start
  uint32_t depth = 0;         ///< nesting depth within the recording thread
  uint32_t thread = 0;        ///< stable thread index
};

/// \brief Wall/CPU aggregate of the retained spans of one category — the
/// per-stage breakdown the telemetry snapshot and `fairgen_report` show
/// without shipping every span.
struct CategorySummary {
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// \brief Process-wide span collector. Collection is off by default —
/// `ScopedSpan` is a no-op (not even a clock read) until `SetEnabled(true)`
/// — so the hot paths stay untouched unless a run asks for a trace
/// (`--trace-out`). Span append takes one mutex; spans end at scope exit,
/// well off the per-element hot paths.
///
/// Retention is bounded: at most `capacity()` spans are kept (default
/// 1,048,576, ~100 MB worst case; `FAIRGEN_TRACE_CAPACITY` overrides at
/// startup, `SetCapacity` at runtime). Once full the buffer becomes a
/// ring — the oldest span is evicted per append and counted in
/// `dropped()` and the `trace.spans_dropped` metric — so a long-lived
/// publisher session cannot grow without bound. All exports (JSON, CSV,
/// Chrome trace) see the retained spans in completion order.
///
/// Like the metrics registry, tracing is observation-only: it never draws
/// from an `Rng` and never alters chunk layouts, so enabling it cannot
/// change any model output (pinned by the determinism suite).
class Tracer {
 public:
  /// Default span retention cap.
  static constexpr size_t kDefaultCapacity = 1 << 20;

  /// The process-wide tracer (created on first use).
  static Tracer& Global();

  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Appends a completed span (called by ~ScopedSpan).
  void Record(SpanRecord record);

  /// Stable index for the calling thread, assigned on first use.
  uint32_t ThreadIndex();

  /// Copies `name` into the tracer's string arena (deduplicated) and
  /// returns a view that stays valid for the tracer's lifetime. Lets
  /// `ScopedSpan` accept dynamically built names safely.
  std::string_view InternName(std::string_view name);

  /// Steady-clock origin that `SpanRecord::start_ns` is measured from.
  uint64_t epoch_ns() const { return epoch_ns_; }

  /// Copy of the retained spans in completion order (oldest retained
  /// first).
  std::vector<SpanRecord> Snapshot() const;
  /// Number of retained spans.
  size_t size() const;
  /// Drops all spans and zeroes `dropped()`; capacity is kept.
  void Clear();

  /// Caps retained spans at `capacity` (minimum 1). If more are currently
  /// held, the oldest are evicted (counted as dropped).
  void SetCapacity(size_t capacity);
  size_t capacity() const;
  /// Spans evicted by the ring since construction or `Clear`.
  uint64_t dropped() const;

  /// Aggregate wall/CPU time of the retained spans per category, sorted
  /// by category name; categories without spans are omitted. Computed
  /// under the tracer lock without copying the span buffer, so it is
  /// cheap enough for the telemetry publisher's periodic snapshot.
  std::vector<std::pair<std::string, CategorySummary>> SummarizeByCategory()
      const;

  /// JSON list of span objects, completion order:
  /// [{"name": ..., "cat": ..., "start_ns": ..., "wall_ns": ...,
  ///   "cpu_ns": ..., "depth": ..., "thread": ...}, ...]
  std::string ToJson() const;

  /// Chrome trace-event JSON (the format ui.perfetto.dev and
  /// chrome://tracing load directly): one complete ("ph":"X") event per
  /// span with microsecond `ts`/`dur` plus thread-CPU `tts`/`tdur`, one
  /// thread track per stable thread index, span categories as `cat`, and
  /// one counter track ("ph":"C") per metrics-registry series with
  /// recorded timestamps — so training curves and memory gauges render
  /// alongside the span timeline.
  std::string ToChromeTrace() const;

  Status WriteJson(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Writes Chrome trace-event JSON when `path` ends in `.perfetto.json`,
  /// `.chrome.json` or `.pftrace.json`, the flat span JSON otherwise —
  /// the dispatch behind `--trace-out=`.
  Status WriteAuto(const std::string& path) const;

 private:
  Tracer();

  // Retained spans in completion order, under mu_.
  std::vector<SpanRecord> SnapshotLocked() const;

  mutable std::mutex mu_;
  // Span storage. Below capacity_ it is a plain append vector
  // (ring_start_ == 0); at capacity it is a ring whose oldest element is
  // spans_[ring_start_].
  std::vector<SpanRecord> spans_;
  size_t ring_start_ = 0;               // guarded by mu_
  size_t capacity_ = kDefaultCapacity;  // guarded by mu_
  uint64_t dropped_ = 0;                // guarded by mu_
  // Interned span names: node-based set, so the string storage (and every
  // view handed out) is stable for the tracer's lifetime.
  std::set<std::string, std::less<>> names_;
  uint32_t next_thread_index_ = 0;  // guarded by mu_
  uint64_t epoch_ns_ = 0;           // steady-clock origin of start_ns
  bool enabled_ = false;            // guarded by mu_ for writes
};

/// \brief RAII span: records wall time (steady clock) and CPU time
/// (CLOCK_THREAD_CPUTIME_ID) between construction and destruction under
/// `name`. Spans nest per thread. `name` may be a temporary — it is
/// interned into the tracer's arena at construction, so dynamically built
/// names (e.g. "bench.<scenario>") are safe.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      Category category = Category::kGeneral);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  std::string_view name_;  // interned; stable for the tracer's lifetime
  Category category_ = Category::kGeneral;
  uint64_t start_wall_ns_ = 0;
  uint64_t start_cpu_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace trace
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_TRACE_H_
