#include "common/events.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace fairgen {
namespace events {

namespace {

// %.17g round-trips every finite double through text exactly (same
// contract as the metrics/telemetry exporters).
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

uint64_t NowUnixMillis() {
  struct timespec ts;
  if (clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

}  // namespace

const char* TypeName(Type type) {
  switch (type) {
    case Type::kStage:
      return "stage";
    case Type::kCheckpoint:
      return "checkpoint";
    case Type::kAlert:
      return "alert";
    case Type::kProbe:
      return "probe";
    case Type::kConfig:
      return "config";
    case Type::kCrash:
      return "crash";
  }
  return "unknown";
}

std::string ToJsonLine(const Event& event) {
  std::string out = "{\"seq\": " + std::to_string(event.seq);
  out += ", \"unix_ms\": " + std::to_string(event.unix_ms);
  out += std::string(", \"type\": \"") + TypeName(event.type) + "\"";
  out += ", \"name\": \"" + JsonEscape(event.name) + "\"";
  if (!event.severity.empty()) {
    out += ", \"severity\": \"" + JsonEscape(event.severity) + "\"";
  }
  if (event.epoch >= 0.0) {
    out += ", \"epoch\": " + FormatValue(event.epoch);
  }
  if (!event.message.empty()) {
    out += ", \"message\": \"" + JsonEscape(event.message) + "\"";
  }
  out += ", \"fields\": {";
  for (size_t i = 0; i < event.fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(event.fields[i].first) +
           "\": " + FormatValue(event.fields[i].second);
  }
  out += "}}";
  return out;
}

Journal& Journal::Global() {
  // Leaked singleton: the crash flush may emit/flush after static
  // destruction has begun.
  static Journal* journal = new Journal();
  return *journal;
}

uint64_t Journal::Emit(Event event) {
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock() || pending_.size() >= kMaxPending) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  event.seq = next_seq_++;
  event.unix_ms = NowUnixMillis();
  const uint64_t seq = event.seq;
  const int type = static_cast<int>(event.type);
  if (buffering_) pending_.push_back(std::move(event));
  total_.fetch_add(1, std::memory_order_relaxed);
  if (type >= 0 && type < kNumTypes) {
    type_counts_[type].fetch_add(1, std::memory_order_relaxed);
  }
  return seq;
}

Status Journal::FlushTo(const std::string& path) {
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock()) return Status::OK();  // crash flush, skip
  if (pending_.empty()) return Status::OK();
  std::string text;
  for (const Event& event : pending_) {
    text += ToJsonLine(event);
    text += '\n';
  }
  // Plain O_APPEND write (not the atomic-rename contract): the file is
  // append-only across the run's lifetime, and every line is fully
  // serialized before the single write+fsync, so a reader sees whole
  // records (a torn final line is possible only on power loss).
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return Status::IOError("cannot append to " + path);
  }
  const size_t wrote = std::fwrite(text.data(), 1, text.size(), file);
  std::fflush(file);
  ::fsync(::fileno(file));
  std::fclose(file);
  if (wrote != text.size()) {
    return Status::IOError("short write to " + path);
  }
  pending_.clear();
  return Status::OK();
}

size_t Journal::pending() const {
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock()) return 0;
  return pending_.size();
}

void Journal::SetBuffering(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  buffering_ = on;
}

void Journal::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  buffering_ = true;
  pending_.clear();
  next_seq_ = 1;
  total_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (auto& count : type_counts_) {
    count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace events
}  // namespace fairgen
