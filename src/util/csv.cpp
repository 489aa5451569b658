#include "util/csv.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "util/error.hpp"

namespace amf::util {

namespace {

std::string at_line(long line_number) {
  return " (line " + std::to_string(line_number) + ")";
}

}  // namespace

bool read_csv_line(std::istream& in, std::string& line, long line_number) {
  line.clear();
  // Read in bounded chunks, never more than one byte past the cap: an
  // over-long line is rejected once kMaxCsvLineLength + 1 bytes are held,
  // however long it really is (std::getline would buffer all of it).
  constexpr std::size_t kChunk = 4096;
  char chunk[kChunk];
  bool extracted = false;
  for (;;) {
    const std::size_t room =
        std::min(kChunk - 1, kMaxCsvLineLength + 1 - line.size());
    in.getline(chunk, static_cast<std::streamsize>(room + 1));
    AMF_REQUIRE(!in.bad(), "CSV input stream failed" + at_line(line_number));
    const auto got = static_cast<std::size_t>(in.gcount());
    const bool newline = in.good();  // extracted, and counted in gcount
    const bool full = !newline && !in.eof();
    if (full && got != room) return false;  // the stream had already failed
    line.append(chunk, newline ? got - 1 : got);
    AMF_REQUIRE(line.size() <= kMaxCsvLineLength,
                "CSV line exceeds " + std::to_string(kMaxCsvLineLength) +
                    " bytes" + at_line(line_number));
    extracted = extracted || got > 0;
    if (full) {  // `room` bytes stored and no newline yet
      in.clear();
      continue;
    }
    if (!extracted) return false;  // clean EOF
    if (in.eof()) in.clear(std::ios::eofbit);  // a last line without '\n'
    break;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::size_t header_count(double value, const char* what, long line_number) {
  AMF_REQUIRE(value >= 0.0 && value == std::floor(value),
              std::string(what) + " count must be a non-negative integer" +
                  at_line(line_number));
  // Far above any real input, far below allocation-bomb territory for a
  // caller that reserves from it.
  constexpr double kMaxCount = 1e9;
  AMF_REQUIRE(value <= kMaxCount, std::string(what) +
                                      " count implausibly large" +
                                      at_line(line_number));
  return static_cast<std::size_t>(value);
}

double parse_csv_double(const std::string& cell, long line_number) {
  AMF_REQUIRE(!cell.empty(), "empty CSV cell" + at_line(line_number));
  const char* begin = cell.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  AMF_REQUIRE(end == begin + cell.size() && errno != ERANGE,
              "CSV cell '" + cell + "' is not a valid number" +
                  at_line(line_number));
  AMF_REQUIRE(std::isfinite(value),
              "CSV cell '" + cell + "' is not finite" + at_line(line_number));
  return value;
}

std::vector<double> parse_csv_doubles(const std::string& line,
                                      long line_number) {
  std::vector<double> row;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    const std::size_t len =
        (comma == std::string::npos ? line.size() : comma) - start;
    row.push_back(parse_csv_double(line.substr(start, len), line_number));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return row;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), columns_(header.size()) {
  AMF_REQUIRE(columns_ > 0, "CSV header must have at least one column");
  write_row(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  AMF_REQUIRE(cells.size() == columns_, "CSV row width mismatch");
  write_row(cells);
}

void CsvWriter::row_numeric(const std::vector<double>& cells) {
  std::vector<std::string> s;
  s.reserve(cells.size());
  for (double v : cells) s.push_back(format(v));
  row(s);
}

std::string CsvWriter::escape(const std::string& field) {
  bool needs_quote = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::format(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  // %.12g round-trips every value that arises from our experiments while
  // staying human-readable.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

}  // namespace amf::util
