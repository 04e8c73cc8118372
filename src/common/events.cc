#include "common/events.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/json.h"
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
    case Type::kCrash:
      return "crash";
  }
  return "unknown";
}

const double* Event::Field(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
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

Result<Event> ParseJsonLine(std::string_view line) {
  FAIRGEN_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  const json::Value* seq = doc.Find("seq");
  const json::Value* unix_ms = doc.Find("unix_ms");
  const json::Value* type = doc.Find("type");
  const json::Value* name = doc.Find("name");
  const json::Value* fields = doc.Find("fields");
  if (seq == nullptr || !seq->is_number() || unix_ms == nullptr ||
      !unix_ms->is_number() || type == nullptr || !type->is_string() ||
      name == nullptr || !name->is_string() || fields == nullptr ||
      !fields->is_object()) {
    return Status::InvalidArgument(
        "event record needs numeric seq/unix_ms, string type/name and a "
        "fields object");
  }
  Event event;
  bool known = false;
  for (int t = 0; t < kNumTypes && !known; ++t) {
    event.type = static_cast<Type>(t);
    known = type->AsString() == TypeName(event.type);
  }
  if (!known) {
    return Status::InvalidArgument("unknown event type: " + type->AsString());
  }
  event.name = name->AsString();
  event.severity = doc.GetString("severity");
  event.message = doc.GetString("message");
  event.epoch = doc.GetDouble("epoch", -1.0);
  event.seq = static_cast<uint64_t>(seq->AsDouble());
  event.unix_ms = static_cast<uint64_t>(unix_ms->AsDouble());
  for (const auto& [key, value] : fields->AsObject()) {
    if (!value.is_number()) {
      return Status::InvalidArgument("event field " + key +
                                     " is not a number");
    }
    event.fields.emplace_back(key, value.AsDouble());
  }
  return event;
}

Result<JournalFile> ReadJournalFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  JournalFile file;
  size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    Result<Event> event = ParseJsonLine(line);
    if (event.ok()) {
      file.events.push_back(*std::move(event));
    } else {
      file.malformed_lines.push_back(line_no);
    }
  }
  return file;
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

Status Journal::FlushTo(const std::string& path, uint64_t through_seq) {
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock()) return Status::OK();  // crash flush, skip
  // Pending records are in seq order, so the flushed ones are a prefix.
  const auto end = std::find_if(
      pending_.begin(), pending_.end(),
      [through_seq](const Event& event) { return event.seq > through_seq; });
  if (end == pending_.begin()) return Status::OK();
  std::string text;
  for (auto it = pending_.begin(); it != end; ++it) {
    text += ToJsonLine(*it);
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
  pending_.erase(pending_.begin(), end);
  return Status::OK();
}

void Journal::VisitPending(
    Type type, const std::function<void(const Event&)>& visit) const {
  std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
  if (!lock.owns_lock()) return;
  for (const Event& event : pending_) {
    if (event.type == type) visit(event);
  }
}

uint64_t Journal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
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
