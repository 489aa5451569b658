// csv.hpp — small CSV emitter for experiment output, plus the hardened
// reader helpers every CSV-ingesting path uses. Benches print their
// series to stdout in CSV so figures can be regenerated with any plotting
// tool; CsvWriter handles quoting and column consistency.
//
// The readers treat their input as hostile: lines are length-capped
// before anything is allocated for them, every cell must parse as a
// complete *finite* double, and each ContractError names the 1-based line
// number so a malformed trace points at the offending line instead of at
// whatever solver first trips over the garbage.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <ostream>
#include <string>
#include <vector>

namespace amf::util {

/// Ceiling on one line of CSV input accepted by read_csv_line: long
/// enough for any trace this library writes, short enough that hostile
/// input cannot drive unbounded allocation.
inline constexpr std::size_t kMaxCsvLineLength = 1u << 20;  // 1 MiB

/// Reads one line into `line` (strips a trailing '\r'). Returns false on
/// clean EOF; throws ContractError naming `line_number` when the line
/// exceeds kMaxCsvLineLength.
bool read_csv_line(std::istream& in, std::string& line, long line_number);

/// Parses one CSV cell as a double. Throws ContractError naming
/// `line_number` when the cell is empty, has trailing garbage, overflows,
/// or is not finite (NaN/Inf are data errors in every consumer here).
double parse_csv_double(const std::string& cell, long line_number);

/// A count read from a header cell: an exact non-negative integer no
/// larger than 1e9 (a NaN or negative double cast to size_t is undefined
/// behavior, and a fractional count is a malformed file, not a rounding
/// choice). Throws ContractError naming `what` and `line_number`.
std::size_t header_count(double value, const char* what, long line_number);

/// Splits one CSV line on ',' and parses every cell via parse_csv_double.
std::vector<double> parse_csv_doubles(const std::string& line,
                                      long line_number);

/// Streams rows of a fixed-width CSV table. The header row fixes the column
/// count; subsequent rows must match it.
class CsvWriter {
 public:
  /// Writes the header immediately. `out` must outlive the writer.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Writes one data row; throws ContractError on column-count mismatch.
  void row(const std::vector<std::string>& cells);

  /// Convenience: formats doubles with enough digits to round-trip.
  void row_numeric(const std::vector<double>& cells);

  std::size_t columns() const { return columns_; }

  /// Escapes one CSV field (quotes when it contains comma/quote/newline).
  static std::string escape(const std::string& field);

  /// Round-trippable decimal formatting for doubles (trims trailing zeros).
  static std::string format(double v);

 private:
  void write_row(const std::vector<std::string>& cells);

  std::ostream& out_;
  std::size_t columns_;
};

}  // namespace amf::util
