#ifndef FAIRGEN_COMMON_CSV_H_
#define FAIRGEN_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace fairgen {

/// \brief Accumulates a rectangular table and renders it as CSV or as an
/// aligned ASCII table. Used by the benchmark harness to print the rows and
/// series that the paper's figures report.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Convenience: appends a row of (label, doubles...) cells.
  void AddRow(const std::string& label, const std::vector<double>& values,
              int precision = 4);

  /// Number of data rows.
  size_t num_rows() const { return rows_.size(); }
  /// Number of columns.
  size_t num_cols() const { return header_.size(); }

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders the table as CSV text (header row first).
  std::string ToCsv() const;

  /// Renders the table with aligned columns for terminal output.
  std::string ToAscii() const;

  /// Writes `ToCsv()` to `path`.
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fairgen

#endif  // FAIRGEN_COMMON_CSV_H_
