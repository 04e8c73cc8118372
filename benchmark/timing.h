#ifndef FAIRGEN_BENCHMARK_TIMING_H_
#define FAIRGEN_BENCHMARK_TIMING_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace fairgen_bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles of `values` (non-empty), interpolated like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so they match
/// how the benchmark is judged; a single value is its own quartiles.
Quartiles ComputeQuartiles(std::vector<double> values);

inline double Median(std::vector<double> values) {
  return ComputeQuartiles(std::move(values)).median;
}

/// One timed interval of the traced pass. Times are seconds since the
/// recorder was created; `parent` indexes the enclosing span (-1 for a
/// root) and `request` groups the spans of one request (-1 outside one).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int request = -1;
  /// Duration minus the durations of the direct children.
  double self_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

/// \brief In-memory span recorder for the benchmark's traced pass.
///
/// The benchmark is single-threaded around the library calls it makes, so
/// spans nest strictly: a span begun while another is open is its child.
/// Spans stay in memory and are written out once, at exit.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(std::string name, int request);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// Fills every span's self time: its duration minus its children's.
  void ComputeSelfTimes();

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs), with
  /// each span's request id and self time in its args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that does nothing when `recorder` is null, so the same code
/// path runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int request)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace fairgen_bench

#endif  // FAIRGEN_BENCHMARK_TIMING_H_
