#include "common/json.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace fairgen {
namespace json {

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = AsObject();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

std::string Value::GetString(std::string_view key,
                             std::string_view fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::string(fallback);
}

namespace {

constexpr int kMaxDepth = 200;

/// Recursive-descent parser over a string_view with positional errors.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  // Every parser writes its value into `out`, and Parse builds its
  // Result around the value in place: moving the recursive variant
  // through Result<Value> trips GCC 12's -Wmaybe-uninitialized.
  Status ParseDocument(Value* out) {
    FAIRGEN_RETURN_NOT_OK(ParseValue(0, out));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ParseValue(int depth, Value* out) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        FAIRGEN_ASSIGN_OR_RETURN(std::string s, ParseString());
        *out = Value(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Value(true), out);
      case 'f':
        return ParseLiteral("false", Value(false), out);
      case 'n':
        return ParseLiteral("null", Value(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view literal, Value value, Value* out) {
    if (!ConsumeLiteral(literal)) return Error("invalid literal");
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseObject(int depth, Value* out) {
    ++pos_;  // consume '{'
    Object obj;
    SkipWhitespace();
    if (Consume('}')) {
      *out = Value(std::move(obj));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      FAIRGEN_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      FAIRGEN_RETURN_NOT_OK(ParseValue(depth + 1, &obj[std::move(key)]));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) {
        *out = Value(std::move(obj));
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, Value* out) {
    ++pos_;  // consume '['
    Array arr;
    SkipWhitespace();
    if (Consume(']')) {
      *out = Value(std::move(arr));
      return Status::OK();
    }
    while (true) {
      FAIRGEN_RETURN_NOT_OK(ParseValue(depth + 1, &arr.emplace_back()));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) {
        *out = Value(std::move(arr));
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // consume opening '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume '\'
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not combined
          // — the repo's exporters only emit \u00XX for C0 controls).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    *out = Value(value);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  Result<Value> doc{Value()};
  FAIRGEN_RETURN_NOT_OK(Parser(text).ParseDocument(&*doc));
  return doc;
}

Result<Value> ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

}  // namespace json
}  // namespace fairgen
