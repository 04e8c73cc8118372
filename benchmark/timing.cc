#include "timing.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/strings.h"

namespace fairgen_bench {

Quartiles ComputeQuartiles(std::vector<double> values) {
  FAIRGEN_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // CPython's exclusive method, in the same integer arithmetic.
  const int64_t m = static_cast<int64_t>(n) + 1;
  auto cut = [&](int64_t i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1,
                                          static_cast<int64_t>(n) - 1);
    const int64_t delta = i * m - j * 4;
    return (values[static_cast<size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int SpanRecorder::Begin(std::string name, int request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_s = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  FAIRGEN_CHECK(!open_.empty() && open_.back() == id)
      << "span " << id << " closed out of order";
  spans_[static_cast<size_t>(id)].end_s = SecondsSince(origin_);
  open_.pop_back();
}

void SpanRecorder::ComputeSelfTimes() {
  for (Span& span : spans_) span.self_s = span.duration_s();
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].self_s -= span.duration_s();
    }
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %d, "
                 "\"parent\": %d, \"self_us\": %.3f}}%s\n",
                 fairgen::JsonEscape(s.name).c_str(), s.start_s * 1e6,
                 s.duration_s() * 1e6, s.request, s.parent, s.self_s * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace fairgen_bench
