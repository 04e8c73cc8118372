#include "common/csv.h"

#include <algorithm>
#include <fstream>

#include "common/logging.h"
#include "common/strings.h"

namespace fairgen {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  FAIRGEN_CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> row) {
  FAIRGEN_CHECK(row.size() == header_.size())
      << "row arity " << row.size() << " != header arity " << header_.size();
  rows_.push_back(std::move(row));
}

void Table::AddRow(const std::string& label, const std::vector<double>& values,
                   int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(FormatDouble(v, precision));
  AddRow(std::move(row));
}

std::string Table::ToCsv() const {
  std::string out = StrJoin(header_, ",");
  out.push_back('\n');
  for (const auto& row : rows_) {
    out += StrJoin(row, ",");
    out.push_back('\n');
  }
  return out;
}

std::string Table::ToAscii() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line.push_back('\n');
    return line;
  };
  std::string out = render_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out.push_back('\n');
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

Status Table::WriteCsv(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  file << ToCsv();
  if (!file.good()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace fairgen
