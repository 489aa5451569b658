#include "workload/trace.hpp"

#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace amf::workload {

double Trace::offered_load() const {
  if (jobs.empty()) return 0.0;
  double total_work = 0.0;
  for (const auto& job : jobs)
    total_work += std::accumulate(job.workloads.begin(), job.workloads.end(),
                                  0.0);
  double span = jobs.back().arrival;
  double capacity =
      std::accumulate(capacities.begin(), capacities.end(), 0.0);
  if (span <= 0.0 || capacity <= 0.0) return 0.0;
  return total_work / (span * capacity);
}

Trace generate_trace(Generator& generator, double load, int count) {
  AMF_REQUIRE(load > 0.0, "offered load must be positive");
  AMF_REQUIRE(count >= 0, "count must be >= 0");

  Trace trace;
  auto& rng = generator.rng();
  // As in Generator::generate(), every multi-resource draw is gated on
  // the config so R = 1 traces consume the exact pre-lift RNG sequence.
  const bool multi = generator.config().resources > 1;
  if (multi) {
    trace.capacity_matrix = generator.draw_capacity_matrix(rng);
    trace.capacities.resize(trace.capacity_matrix.size());
    for (std::size_t s = 0; s < trace.capacity_matrix.size(); ++s) {
      double binding = trace.capacity_matrix[s].front();
      for (double c : trace.capacity_matrix[s]) binding = std::min(binding, c);
      trace.capacities[s] = binding;
    }
  } else {
    trace.capacities = generator.draw_capacities(rng);
  }
  double capacity = std::accumulate(trace.capacities.begin(),
                                    trace.capacities.end(), 0.0);
  // Mean work per job is mean_job_work, so a Poisson arrival rate of
  // load·capacity/mean_work delivers `load` of the system per unit time.
  double rate = load * capacity / generator.config().mean_job_work;

  double clock = 0.0;
  trace.jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    clock += rng.exponential(rate);
    auto row = generator.draw_job_row(trace.capacities, rng);
    TraceJob job;
    job.arrival = clock;
    job.workloads = std::move(row.workloads);
    job.demands = std::move(row.demands);
    if (multi) job.profile = generator.draw_profile(rng);
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

namespace {

/// Hardened row reader: length-capped line, every cell a finite double,
/// every error a ContractError naming the 1-based line number. `line_no`
/// is advanced past the consumed line.
std::vector<double> read_csv_row(std::istream& in, std::size_t expected,
                                 long& line_no) {
  std::string line;
  AMF_REQUIRE(util::read_csv_line(in, line, line_no),
              "truncated trace file (line " + std::to_string(line_no) +
                  " missing)");
  auto row = util::parse_csv_doubles(line, line_no);
  AMF_REQUIRE(expected == 0 || row.size() == expected,
              "trace file row width mismatch: expected " +
                  std::to_string(expected) + " fields, got " +
                  std::to_string(row.size()) + " (line " +
                  std::to_string(line_no) + ")");
  ++line_no;
  return row;
}

}  // namespace

void save_trace(const Trace& trace, std::ostream& out) {
  using util::CsvWriter;
  const std::size_t m = trace.capacities.size();
  const bool multi = trace.multi_resource();
  const std::size_t r = multi ? trace.capacity_matrix.front().size() : 1;
  out << trace.jobs.size() << ',' << m << ',' << trace.events.size();
  if (multi) out << ',' << r;
  out << '\n';
  auto emit = [&out](const std::vector<double>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << CsvWriter::format(row[i]);
    }
    out << '\n';
  };
  if (multi) {
    AMF_REQUIRE(trace.capacity_matrix.size() == m,
                "trace capacity matrix height mismatch");
    std::vector<double> caps;
    caps.reserve(m * r);
    for (const auto& row : trace.capacity_matrix) {
      AMF_REQUIRE(row.size() == r, "trace capacity matrix width mismatch");
      caps.insert(caps.end(), row.begin(), row.end());
    }
    emit(caps);
  } else {
    emit(trace.capacities);
  }
  for (const auto& job : trace.jobs) {
    AMF_REQUIRE(job.workloads.size() == m && job.demands.size() == m,
                "trace job width mismatch");
    std::vector<double> row{job.arrival, job.weight};
    row.insert(row.end(), job.workloads.begin(), job.workloads.end());
    row.insert(row.end(), job.demands.begin(), job.demands.end());
    if (multi) {
      AMF_REQUIRE(job.profile.empty() || job.profile.size() == r,
                  "trace job profile width mismatch");
      if (job.profile.empty())
        row.insert(row.end(), r, 1.0);
      else
        row.insert(row.end(), job.profile.begin(), job.profile.end());
    }
    emit(row);
  }
  for (const auto& ev : trace.events) {
    std::vector<double> row{ev.time, static_cast<double>(ev.site),
                            static_cast<double>(ev.kind)};
    if (multi && !ev.capacity_factors.empty()) {
      AMF_REQUIRE(ev.capacity_factors.size() == r,
                  "trace event factor width mismatch");
      row.insert(row.end(), ev.capacity_factors.begin(),
                 ev.capacity_factors.end());
    } else {
      row.push_back(ev.capacity_factor);
    }
    emit(row);
  }
}

Trace load_trace(std::istream& in) {
  long line_no = 1;
  const long header_line = line_no;
  auto header = read_csv_row(in, 0, line_no);
  AMF_REQUIRE(header.size() >= 2 && header.size() <= 4,
              "trace header must be jobs,sites[,events[,resources]]");
  const std::size_t count = util::header_count(header[0], "job", header_line);
  const std::size_t m = util::header_count(header[1], "site", header_line);
  const std::size_t event_count =
      header.size() >= 3 ? util::header_count(header[2], "event", header_line)
                         : 0;
  const bool multi = header.size() == 4;
  const std::size_t r =
      multi ? util::header_count(header[3], "resource", header_line) : 1;
  AMF_REQUIRE(m > 0, "trace needs at least one site (line 1)");
  AMF_REQUIRE(r > 0, "trace needs at least one resource (line 1)");

  Trace trace;
  if (multi) {
    auto caps = read_csv_row(in, m * r, line_no);
    for (double c : caps)
      AMF_REQUIRE(c >= 0.0, "trace capacities must be >= 0 (line 2)");
    trace.capacity_matrix.resize(m);
    trace.capacities.resize(m);
    for (std::size_t s = 0; s < m; ++s) {
      trace.capacity_matrix[s].assign(
          caps.begin() + static_cast<std::ptrdiff_t>(s * r),
          caps.begin() + static_cast<std::ptrdiff_t>((s + 1) * r));
      double binding = trace.capacity_matrix[s].front();
      for (double c : trace.capacity_matrix[s]) binding = std::min(binding, c);
      trace.capacities[s] = binding;
    }
  } else {
    trace.capacities = read_csv_row(in, m, line_no);
    for (double c : trace.capacities)
      AMF_REQUIRE(c >= 0.0, "trace capacities must be >= 0 (line 2)");
  }
  trace.jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const long row_line = line_no;
    auto row = read_csv_row(in, 2 + 2 * m + (multi ? r : 0), line_no);
    TraceJob job;
    job.arrival = row[0];
    job.weight = row[1];
    AMF_REQUIRE(job.arrival >= 0.0,
                "job arrival must be >= 0 (line " + std::to_string(row_line) +
                    ")");
    AMF_REQUIRE(job.weight > 0.0,
                "job weight must be > 0 (line " + std::to_string(row_line) +
                    ")");
    job.workloads.assign(row.begin() + 2,
                         row.begin() + 2 + static_cast<std::ptrdiff_t>(m));
    job.demands.assign(row.begin() + 2 + static_cast<std::ptrdiff_t>(m),
                       row.begin() + 2 + static_cast<std::ptrdiff_t>(2 * m));
    for (std::size_t s = 0; s < m; ++s) {
      AMF_REQUIRE(job.workloads[s] >= 0.0,
                  "job workloads must be >= 0 (line " +
                      std::to_string(row_line) + ")");
      AMF_REQUIRE(job.demands[s] >= 0.0,
                  "job demands must be >= 0 (line " +
                      std::to_string(row_line) + ")");
    }
    if (multi) {
      job.profile.assign(row.begin() + 2 + static_cast<std::ptrdiff_t>(2 * m),
                         row.end());
      bool any = false;
      for (double p : job.profile) {
        AMF_REQUIRE(p >= 0.0, "job profile entries must be >= 0 (line " +
                                  std::to_string(row_line) + ")");
        any = any || p > 0.0;
      }
      AMF_REQUIRE(any, "job profile needs a positive entry (line " +
                           std::to_string(row_line) + ")");
    }
    trace.jobs.push_back(std::move(job));
  }
  trace.events.reserve(event_count);
  for (std::size_t i = 0; i < event_count; ++i) {
    const long row_line = line_no;
    auto row = read_csv_row(in, 0, line_no);
    AMF_REQUIRE(row.size() == 4 || (multi && row.size() == 3 + r),
                "trace event row width mismatch (line " +
                    std::to_string(row_line) + ")");
    SiteEvent ev;
    ev.time = row[0];
    AMF_REQUIRE(ev.time >= 0.0,
                "event time must be >= 0 (line " + std::to_string(row_line) +
                    ")");
    AMF_REQUIRE(row[1] >= 0.0 && row[1] == std::floor(row[1]) &&
                    row[1] < static_cast<double>(m),
                "event site index out of range (line " +
                    std::to_string(row_line) + ")");
    ev.site = static_cast<int>(row[1]);
    AMF_REQUIRE(row[2] == 0.0 || row[2] == 1.0 || row[2] == 2.0,
                "trace event kind must be 0, 1 or 2 (line " +
                    std::to_string(row_line) + ")");
    ev.kind = static_cast<SiteEventKind>(static_cast<int>(row[2]));
    for (std::size_t k = 3; k < row.size(); ++k)
      AMF_REQUIRE(row[k] >= 0.0 && row[k] <= 1.0,
                  "event capacity factor must be in [0, 1] (line " +
                      std::to_string(row_line) + ")");
    if (row.size() == 4) {
      ev.capacity_factor = row[3];
    } else {
      ev.capacity_factors.assign(row.begin() + 3, row.end());
      double binding = ev.capacity_factors.front();
      for (double f : ev.capacity_factors) binding = std::min(binding, f);
      ev.capacity_factor = binding;
    }
    trace.events.push_back(ev);
  }
  return trace;
}

}  // namespace amf::workload
