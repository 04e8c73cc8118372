#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/logging.h"
#include "common/strings.h"
#include "common/trace.h"

namespace fairgen {
namespace metrics {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_best_effort_reads{false};

// %.17g round-trips every finite double through text exactly.
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

// Steady-clock offset from the trace epoch (same timeline as spans), for
// SeriesPoint::ts_ns.
uint64_t NowNsSinceTraceEpoch() {
  uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  uint64_t epoch = trace::Tracer::Global().epoch_ns();
  return now >= epoch ? now - epoch : 0;
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetBestEffortReads(bool on) {
  g_best_effort_reads.store(on, std::memory_order_release);
}

bool BestEffortReads() {
  return g_best_effort_reads.load(std::memory_order_acquire);
}

std::unique_lock<std::mutex> BestEffortLock(std::mutex& mu) {
  if (BestEffortReads()) {
    return std::unique_lock<std::mutex>(mu, std::try_to_lock);
  }
  return std::unique_lock<std::mutex>(mu);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  FAIRGEN_CHECK(!bounds_.empty());
  FAIRGEN_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  // NaN is rejected outright: upper_bound's comparisons are all false for
  // NaN, which would silently file it in the overflow bucket and — worse —
  // poison sum_ (and every later mean) with NaN.
  if (std::isnan(value)) return;
  size_t i = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // upper_bound gives the first bound strictly greater; bucket i counts
  // value <= bounds_[i], so step back onto an exact boundary hit.
  if (i > 0 && value <= bounds_[i - 1]) --i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  // NaN q would propagate through the clamp (both comparisons false) and
  // make target NaN; treat it like the empty histogram instead.
  if (std::isnan(q)) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_count(i));
    if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
      if (i + 1 == buckets_.size()) return bounds_.back();  // overflow
      const double lo =
          i == 0 ? std::min(0.0, bounds_.front()) : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = std::max(0.0, target - cumulative) / in_bucket;
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void Series::Append(double step, double value) {
  if (!Enabled()) return;
  SeriesPoint point;
  point.step = step;
  point.value = value;
  point.ts_ns = NowNsSinceTraceEpoch();
  std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(point);
}

std::vector<std::pair<double, double>> Series::points() const {
  std::unique_lock<std::mutex> lock = BestEffortLock(mu_);
  if (!lock.owns_lock()) return {};
  std::vector<std::pair<double, double>> out;
  out.reserve(points_.size());
  for (const SeriesPoint& p : points_) out.emplace_back(p.step, p.value);
  return out;
}

std::vector<SeriesPoint> Series::points_with_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_.size();
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

struct MetricsRegistry::Entry {
  const char* type;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::unique_ptr<Series> series;
};

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// Precondition: mu_ held by the caller.
MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  const char* type) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), std::make_unique<Entry>())
             .first;
    it->second->type = type;
  }
  FAIRGEN_CHECK(std::string_view(it->second->type) == type)
      << "metric '" << std::string(name) << "' registered as "
      << it->second->type << ", requested as " << type;
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, "counter");
  if (e.counter == nullptr) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, "gauge");
  if (e.gauge == nullptr) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, "histogram");
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *e.histogram;
}

Series& MetricsRegistry::GetSeries(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, "series");
  if (e.series == nullptr) e.series = std::make_unique<Series>();
  return *e.series;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::unique_lock<std::mutex> lock = BestEffortLock(mu_);
  if (!lock.owns_lock()) return {};
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.type = entry->type;
    if (entry->counter != nullptr) {
      snap.fields.emplace_back("value",
                               static_cast<double>(entry->counter->value()));
    } else if (entry->gauge != nullptr) {
      snap.fields.emplace_back("value", entry->gauge->value());
    } else if (entry->histogram != nullptr) {
      const Histogram& h = *entry->histogram;
      for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
        snap.fields.emplace_back(
            "le_" + FormatValue(h.upper_bounds()[i]),
            static_cast<double>(h.bucket_count(i)));
      }
      snap.fields.emplace_back(
          "le_inf",
          static_cast<double>(h.bucket_count(h.num_buckets() - 1)));
      snap.fields.emplace_back("sum", h.sum());
      snap.fields.emplace_back("count", static_cast<double>(h.count()));
      snap.fields.emplace_back("p50", h.Quantile(0.50));
      snap.fields.emplace_back("p95", h.Quantile(0.95));
      snap.fields.emplace_back("p99", h.Quantile(0.99));
    } else if (entry->series != nullptr) {
      for (const auto& [step, value] : entry->series->points()) {
        snap.fields.emplace_back(FormatValue(step), value);
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::pair<std::string, std::vector<SeriesPoint>>>
MetricsRegistry::SeriesSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> out;
  for (const auto& [name, entry] : entries_) {
    if (entry->series != nullptr) {
      out.emplace_back(name, entry->series->points_with_time());
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::vector<MetricSnapshot> snaps = Snapshot();
  const char* sections[] = {"counter", "gauge", "histogram", "series"};
  const char* section_names[] = {"counters", "gauges", "histograms",
                                 "series"};
  std::string out = "{\n";
  for (size_t s = 0; s < 4; ++s) {
    out += "  " + JsonQuote(section_names[s]) + ": {";
    bool first_metric = true;
    for (const MetricSnapshot& snap : snaps) {
      if (snap.type != sections[s]) continue;
      if (!first_metric) out.push_back(',');
      first_metric = false;
      out += "\n    " + JsonQuote(snap.name) + ": ";
      if (snap.type == "counter" || snap.type == "gauge") {
        out += FormatValue(snap.fields[0].second);
      } else if (snap.type == "histogram") {
        out.push_back('{');
        for (size_t f = 0; f < snap.fields.size(); ++f) {
          if (f > 0) out += ", ";
          out += JsonQuote(snap.fields[f].first) + ": " +
                 FormatValue(snap.fields[f].second);
        }
        out.push_back('}');
      } else {  // series: [[step, value], ...]
        out.push_back('[');
        for (size_t f = 0; f < snap.fields.size(); ++f) {
          if (f > 0) out += ", ";
          out += "[" + snap.fields[f].first + ", " +
                 FormatValue(snap.fields[f].second) + "]";
        }
        out.push_back(']');
      }
    }
    out += first_metric ? "}" : "\n  }";
    if (s + 1 < 4) out.push_back(',');
    out.push_back('\n');
  }
  out += "}\n";
  return out;
}

namespace {

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  file << text;
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (entry->counter != nullptr) entry->counter->Reset();
    if (entry->gauge != nullptr) entry->gauge->Reset();
    if (entry->histogram != nullptr) entry->histogram->Reset();
    if (entry->series != nullptr) entry->series->Reset();
  }
}

}  // namespace metrics
}  // namespace fairgen
