#ifndef FAIRGEN_COMMON_STRINGS_H_
#define FAIRGEN_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fairgen {

/// \brief Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// \brief Splits `text` on any run of whitespace, dropping empty fields.
std::vector<std::string> StrSplitWhitespace(std::string_view text);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view text);

/// \brief True iff `text` begins with `prefix`.
bool StrStartsWith(std::string_view text, std::string_view prefix);

/// \brief Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// \brief Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// \brief True iff `text` ends with `suffix`.
bool StrEndsWith(std::string_view text, std::string_view suffix);

/// \brief Parses `text` as a base-10 signed integer in [min_value, max_value].
///
/// The whole string must be consumed: an empty string, leading whitespace, a
/// leading '+', trailing junk ("12abc", "7 "), or a value outside the range
/// all yield InvalidArgument. This is the strict replacement for the
/// `strtol(..., nullptr, 10)` call sites that silently parsed garbage as 0.
Result<int64_t> ParseInt(std::string_view text,
                         int64_t min_value = INT64_MIN,
                         int64_t max_value = INT64_MAX);

/// \brief Parses `text` as a base-10 unsigned integer in [0, max_value].
///
/// Same full-consumption contract as ParseInt. A leading '-' is rejected
/// outright (strtoul would wrap "-1" to a huge unsigned instead).
Result<uint64_t> ParseUint(std::string_view text,
                           uint64_t max_value = UINT64_MAX);

/// \brief Escapes `text` for inclusion inside a double-quoted JSON string:
/// `"` and `\` are backslash-escaped, the named control characters become
/// \b \f \n \r \t, and the remaining C0 controls become \u00XX. Does not
/// add the surrounding quotes. Shared by every JSON exporter in the repo
/// (metrics registry, span trace, Chrome trace, profiler top table).
std::string JsonEscape(std::string_view text);

/// \brief `text` as a JSON string literal: JsonEscape plus the
/// surrounding double quotes.
std::string JsonQuote(std::string_view text);

}  // namespace fairgen

#endif  // FAIRGEN_COMMON_STRINGS_H_
