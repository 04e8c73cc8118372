#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace fairgen {

namespace {

// Shared tail of ParseInt/ParseUint: maps a completed std::from_chars call
// on `text` to the strict full-consumption contract.
template <typename T>
Result<T> FinishParse(std::string_view text, T value, std::from_chars_result
                          parsed) {
  if (parsed.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: '" +
                                   std::string(text) + "'");
  }
  if (parsed.ec != std::errc() || parsed.ptr != text.data() + text.size()) {
    return Status::InvalidArgument("not a base-10 integer: '" +
                                   std::string(text) + "'");
  }
  return value;
}

}  // namespace

Result<int64_t> ParseInt(std::string_view text, int64_t min_value,
                         int64_t max_value) {
  if (text.empty()) {
    return Status::InvalidArgument("empty string where integer expected");
  }
  int64_t value = 0;
  auto parsed = std::from_chars(text.data(), text.data() + text.size(), value);
  FAIRGEN_ASSIGN_OR_RETURN(value, FinishParse(text, value, parsed));
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "integer " + std::to_string(value) + " outside [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  }
  return value;
}

Result<uint64_t> ParseUint(std::string_view text, uint64_t max_value) {
  if (text.empty()) {
    return Status::InvalidArgument("empty string where integer expected");
  }
  // from_chars on an unsigned type parses "-1" as ULLONG_MAX on some
  // implementations' strtoul heritage; it actually rejects '-', but be
  // explicit so the negative-to-unsigned wrap can never come back.
  if (text.front() == '-') {
    return Status::InvalidArgument("negative value where unsigned expected: '" +
                                   std::string(text) + "'");
  }
  uint64_t value = 0;
  auto parsed = std::from_chars(text.data(), text.data() + text.size(), value);
  FAIRGEN_ASSIGN_OR_RETURN(value, FinishParse(text, value, parsed));
  if (value > max_value) {
    return Status::InvalidArgument("integer " + std::to_string(value) +
                                   " exceeds maximum " +
                                   std::to_string(max_value));
  }
  return value;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> StrSplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view StrTrim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StrStartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

bool StrEndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonQuote(std::string_view text) {
  return "\"" + JsonEscape(text) + "\"";
}

}  // namespace fairgen
