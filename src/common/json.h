#ifndef FAIRGEN_COMMON_JSON_H_
#define FAIRGEN_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fairgen {
namespace json {

class Value;

/// Object members in key-sorted order (std::map) — iteration order is
/// deterministic, which the schema validators rely on.
using Object = std::map<std::string, Value, std::less<>>;
using Array = std::vector<Value>;

/// \brief A parsed JSON value. Numbers are doubles (the repo's exporters
/// only emit doubles and integers that fit a double exactly); strings are
/// fully unescaped.
///
/// This is a *reader* for the repo's own machine artifacts — the
/// telemetry run directory (run.json, snapshot.json, profile_top.json),
/// the metrics registry export, and the Chrome trace — not a general-purpose
/// JSON library. It accepts strict RFC 8259 documents, rejects trailing
/// garbage, and caps nesting at 200 levels.
class Value {
 public:
  Value() : data_(nullptr) {}
  explicit Value(std::nullptr_t) : data_(nullptr) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(Array a) : data_(std::move(a)) {}
  explicit Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Typed accessors; aborts on type mismatch (check `is_*` first).
  bool AsBool() const { return std::get<bool>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const Array& AsArray() const { return std::get<Array>(data_); }
  const Object& AsObject() const { return std::get<Object>(data_); }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  /// Convenience: `Find(key)` as a number/string, or the fallback when the
  /// member is absent or of a different type.
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  std::string GetString(std::string_view key,
                        std::string_view fallback = "") const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      data_;
};

/// \brief Parses one complete JSON document. `InvalidArgument` (with byte
/// offset) on malformed input, trailing garbage, or nesting deeper than
/// 200 levels.
Result<Value> Parse(std::string_view text);

/// \brief Reads and parses a JSON file; `IOError` if unreadable.
Result<Value> ParseFile(const std::string& path);

}  // namespace json
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_JSON_H_
