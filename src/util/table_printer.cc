#include "util/table_printer.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace qpe::util {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };
  print_row(header_);
  os << "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace qpe::util
