#ifndef QPE_UTIL_TABLE_PRINTER_H_
#define QPE_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace qpe::util {

// Minimal fixed-width table formatter used by the benchmark harnesses to
// print paper-style tables/series. Columns are sized to the widest cell.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 2);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace qpe::util

#endif  // QPE_UTIL_TABLE_PRINTER_H_
