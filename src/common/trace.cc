#include "common/trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/metrics.h"
#include "common/strings.h"

namespace fairgen {
namespace trace {

namespace {

// Fast-path gate mirroring Tracer::enabled_; checked before any clock
// read so a disabled tracer costs one relaxed load per span.
std::atomic<bool> g_enabled{false};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Per-thread nesting depth and cached thread index (0 = unassigned;
// stored as index + 1).
thread_local uint32_t t_depth = 0;
thread_local uint32_t t_thread_index_plus_one = 0;

// Microseconds with sub-microsecond precision — the unit of the Chrome
// trace-event `ts`/`dur` fields.
std::string NsToUsField(uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return std::string(buf);
}

}  // namespace

namespace {

// Counter for ring evictions. Cached pointer: registration takes the
// registry lock once; every later drop is a relaxed atomic add. Lock
// order is tracer-then-registry on the first drop only, and the registry
// never takes the tracer lock.
metrics::Counter& SpansDroppedCounter() {
  static metrics::Counter* counter =
      &metrics::MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  return *counter;
}

}  // namespace

std::string_view CategoryName(Category category) {
  switch (category) {
    case Category::kGeneral:
      return "general";
    case Category::kWalk:
      return "walk";
    case Category::kTrain:
      return "train";
    case Category::kEmbed:
      return "embed";
    case Category::kGenerate:
      return "generate";
    case Category::kAssemble:
      return "assemble";
    case Category::kEval:
      return "eval";
  }
  return "general";
}

Tracer::Tracer() : epoch_ns_(SteadyNowNs()) {
  // Startup override for long-lived publisher sessions that want a
  // smaller (or larger) retention window.
  if (const char* env = std::getenv("FAIRGEN_TRACE_CAPACITY")) {
    char* end = nullptr;
    unsigned long long cap = std::strtoull(env, &end, 10);
    if (end != env && cap > 0) capacity_ = static_cast<size_t>(cap);
  }
}

Tracer& Tracer::Global() {
  // Leaked singleton: spans can be recorded from pool workers that the
  // runtime joins in static destructors, so the tracer must never die
  // first.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::Record(SpanRecord record) {
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < capacity_) {
      spans_.push_back(std::move(record));
    } else {
      // Ring mode: overwrite the oldest span and advance the start.
      spans_[ring_start_] = std::move(record);
      ring_start_ = (ring_start_ + 1) % capacity_;
      ++dropped_;
      evicted = true;
    }
  }
  if (evicted) SpansDroppedCounter().Increment();
}

uint32_t Tracer::ThreadIndex() {
  if (t_thread_index_plus_one == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    t_thread_index_plus_one = ++next_thread_index_;
  }
  return t_thread_index_plus_one - 1;
}

std::string_view Tracer::InternName(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = names_.find(name);
  if (it == names_.end()) it = names_.emplace(name).first;
  // std::set is node-based: the string's storage never moves, so the view
  // stays valid for the tracer's (process) lifetime.
  return *it;
}

// Precondition: mu_ held by the caller.
std::vector<SpanRecord> Tracer::SnapshotLocked() const {
  std::vector<SpanRecord> out;
  if (spans_.empty()) return out;
  out.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    out.push_back(spans_[(ring_start_ + i) % spans_.size()]);
  }
  return out;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  ring_start_ = 0;
  dropped_ = 0;
}

void Tracer::SetCapacity(size_t capacity) {
  if (capacity == 0) capacity = 1;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Normalize to completion order so the append path's "plain vector
    // below capacity" invariant holds for the new capacity.
    std::vector<SpanRecord> ordered = SnapshotLocked();
    if (ordered.size() > capacity) {
      evicted = ordered.size() - capacity;
      ordered.erase(ordered.begin(),
                    ordered.begin() + static_cast<ptrdiff_t>(evicted));
      dropped_ += evicted;
    }
    spans_ = std::move(ordered);
    ring_start_ = 0;
    capacity_ = capacity;
  }
  if (evicted > 0) SpansDroppedCounter().Increment(evicted);
}

size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

uint64_t Tracer::dropped() const {
  // Reachable from the crash-flush path (SnapshotJson); must not block
  // on a mutex the interrupted thread may hold.
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock()) return 0;
  return dropped_;
}

std::vector<std::pair<std::string, CategorySummary>>
Tracer::SummarizeByCategory() const {
  // Indexed by Category value; kEval is the last enumerator.
  constexpr size_t kNumCategories =
      static_cast<size_t>(Category::kEval) + 1;
  CategorySummary sums[kNumCategories];
  {
    std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
    if (!lock.owns_lock()) return {};
    for (const SpanRecord& s : spans_) {
      CategorySummary& sum = sums[static_cast<size_t>(s.category)];
      ++sum.count;
      sum.wall_ns += s.wall_ns;
      sum.cpu_ns += s.cpu_ns;
    }
  }
  std::vector<std::pair<std::string, CategorySummary>> out;
  for (size_t c = 0; c < kNumCategories; ++c) {
    if (sums[c].count == 0) continue;
    out.emplace_back(std::string(CategoryName(static_cast<Category>(c))),
                     sums[c]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string Tracer::ToChromeTrace() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto append_event = [&out, &first](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  // Process + thread metadata events: one named track per stable thread
  // index so Perfetto shows "thread-<i>" lanes instead of bare tids.
  append_event(
      "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
      "\"process_name\", \"args\": {\"name\": \"fairgen\"}}");
  uint32_t max_thread = 0;
  for (const SpanRecord& s : spans) {
    if (s.thread > max_thread) max_thread = s.thread;
  }
  for (uint32_t t = 0; t <= max_thread; ++t) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"thread-%u\"}}",
                  t, t);
    append_event(buf);
  }

  // Complete events ("ph":"X"): ts/dur in wall microseconds, tts/tdur in
  // thread-CPU microseconds (CLOCK_THREAD_CPUTIME_ID is monotone per
  // thread, which is all Perfetto requires of tts).
  for (const SpanRecord& s : spans) {
    std::string event = "{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
                        std::to_string(s.thread) + ", \"ts\": " +
                        NsToUsField(s.start_ns) + ", \"dur\": " +
                        NsToUsField(s.wall_ns) + ", \"tts\": " +
                        NsToUsField(s.cpu_start_ns) + ", \"tdur\": " +
                        NsToUsField(s.cpu_ns) + ", \"cat\": \"" +
                        std::string(CategoryName(s.category)) +
                        "\", \"name\": \"" + JsonEscape(s.name) +
                        "\", \"args\": {\"depth\": " +
                        std::to_string(s.depth) + "}}";
    append_event(event);
  }

  // Counter events ("ph":"C") from every metrics-registry series with
  // timestamped points — the training curves (trainer.nll, ...) render
  // as counter tracks under the spans.
  for (const auto& [name, points] :
       metrics::MetricsRegistry::Global().SeriesSnapshot()) {
    std::string quoted_name = JsonEscape(name);
    for (const metrics::SeriesPoint& p : points) {
      char value_buf[64];
      std::snprintf(value_buf, sizeof(value_buf), "%.17g", p.value);
      std::string event = "{\"ph\": \"C\", \"pid\": 1, \"ts\": " +
                          NsToUsField(p.ts_ns) + ", \"name\": \"" +
                          quoted_name + "\", \"args\": {\"value\": " +
                          value_buf + "}}";
      append_event(event);
    }
  }

  out += "\n]\n}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  file << ToChromeTrace();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

ScopedSpan::ScopedSpan(std::string_view name, Category category) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  // Interning copies the name into the tracer's arena, so temporaries
  // (dynamically built names) are safe — the view below never dangles.
  name_ = Tracer::Global().InternName(name);
  category_ = category;
  depth_ = t_depth++;
  start_wall_ns_ = SteadyNowNs();
  start_cpu_ns_ = ThreadCpuNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --t_depth;
  // The tracer may have been disabled mid-span; still record so that
  // enable/disable pairs cannot unbalance the depth counter.
  Tracer& tracer = Tracer::Global();
  SpanRecord record;
  record.name = std::string(name_);
  record.category = category_;
  uint64_t now = SteadyNowNs();
  record.wall_ns = now - start_wall_ns_;
  record.cpu_ns = ThreadCpuNs() - start_cpu_ns_;
  record.cpu_start_ns = start_cpu_ns_;
  record.depth = depth_;
  record.thread = tracer.ThreadIndex();
  // start_ns is relative to the tracer epoch so traces from one process
  // line up on a common timeline.
  record.start_ns =
      start_wall_ns_ >= tracer.epoch_ns() ? start_wall_ns_ - tracer.epoch_ns()
                                          : 0;
  tracer.Record(std::move(record));
}

}  // namespace trace
}  // namespace fairgen
