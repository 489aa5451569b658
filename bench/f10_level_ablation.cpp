// F10 — Critical-level solver ablation: cut-Newton vs plain bisection.
//
// AMF's progressive filling must locate the largest feasible water level
// each round. The cut-Newton scheme reads the binding min-cut after each
// (infeasible) max-flow and jumps directly to where that cut's linear
// value meets demand, landing on the breakpoint after a handful of
// solves; plain bisection pays ~30 solves per round for tolerance-level
// accuracy. Both must produce identical aggregates — this bench measures
// the cost difference (max-flow solves and wall time) and verifies the
// agreement.
#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "common.hpp"

namespace {

/// Timed rounds after one warm-up round. Every round times each row once,
/// so each row's samples spread over the whole run and a slow spell on a
/// shared host hits all rows alike instead of one row's burst of calls.
constexpr int kRounds = 15;

}  // namespace

int main() {
  using namespace amf;
  bench::preamble(
      "F10", "critical-level solver ablation (cut-Newton vs bisection)",
      {"both methods compute identical AMF aggregates",
       "expected: cut-Newton needs several times fewer max-flow solves",
       "ms: min over 15 interleaved rounds after one warm-up round"});

  const core::AmfAllocator newton(1e-9, flow::LevelMethod::kCutNewton);
  const core::AmfAllocator bisection(1e-9, flow::LevelMethod::kBisection);
  const int sizes[] = {25, 50, 100, 250, 500};

  struct Row {
    int jobs = 0;
    const core::AmfAllocator* allocator = nullptr;
    const core::AllocationProblem* problem = nullptr;
    core::SolveReport report;
    core::Allocation allocation;
    double best_ms = std::numeric_limits<double>::infinity();
  };
  std::vector<core::AllocationProblem> problems;
  for (int jobs : sizes) {
    auto cfg = workload::paper_default(1.2, 71);
    cfg.jobs = jobs;
    workload::Generator gen(cfg);
    problems.push_back(gen.generate());
  }
  std::vector<Row> rows;
  for (std::size_t i = 0; i < problems.size(); ++i)
    for (const core::AmfAllocator* allocator : {&newton, &bisection})
      rows.push_back({sizes[i], allocator, &problems[i], {}, {}});

  for (int round = 0; round <= kRounds; ++round) {
    for (Row& row : rows) {
      row.report.reset();
      const auto start = std::chrono::steady_clock::now();
      row.allocation =
          row.allocator->allocate_with_report(*row.problem, row.report);
      const auto stop = std::chrono::steady_clock::now();
      if (round == 0) continue;  // warm-up
      row.best_ms = std::min(
          row.best_ms,
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
  }

  util::CsvWriter csv(std::cout,
                      {"jobs", "method", "flow_solves", "ms",
                       "max_aggregate_diff"});
  for (std::size_t i = 0; i < rows.size(); i += 2) {
    const Row& cut = rows[i];
    const Row& bisect = rows[i + 1];
    double max_diff = 0.0;
    for (int j = 0; j < cut.jobs; ++j)
      max_diff = std::max(max_diff,
                          std::abs(cut.allocation.aggregate(j) -
                                   bisect.allocation.aggregate(j)));
    for (const Row* row : {&cut, &bisect})
      csv.row({util::CsvWriter::format(row->jobs),
               row == &cut ? "cut-newton" : "bisection",
               util::CsvWriter::format(row->report.flow_solves),
               util::CsvWriter::format(row->best_ms),
               util::CsvWriter::format(max_diff)});
  }
  return 0;
}
