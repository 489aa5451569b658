#include "core/reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "flow/transport.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"

namespace amf::core {

bool is_max_min_fair(const AllocationProblem& problem,
                     const std::vector<double>& aggregates, double tol) {
  const int n = problem.jobs();
  AMF_REQUIRE(static_cast<int>(aggregates.size()) == n,
              "aggregate vector length != job count");
  if (n == 0) return true;
  const double scale = problem.scale();
  const double tol_abs = tol * scale;

  flow::TransportNetwork net(problem.demand_rows(), problem.capacities());

  // 1. The vector itself must be feasible.
  net.solve(aggregates);
  if (!net.saturated(tol)) return false;

  // 2. Fixed point: no job's aggregate can rise while every weakly
  //    worse-off job keeps its value (better-off jobs may be cut freely).
  // The probe increment must dominate the flow solver's saturation slack
  // (which is relative to total flow, i.e. grows with instance size).
  const double delta =
      std::max({tol_abs * 32.0, 1e-6 * scale,
                tol * problem.total_capacity() * 4.0});
  std::vector<double> norm(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    norm[static_cast<std::size_t>(j)] =
        aggregates[static_cast<std::size_t>(j)] / problem.weight(j);

  std::vector<double> floors(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double level = norm[static_cast<std::size_t>(j)];
    const double level_tol = tol * std::max(1.0, level);
    for (int k = 0; k < n; ++k) {
      if (k == j)
        floors[static_cast<std::size_t>(k)] =
            aggregates[static_cast<std::size_t>(k)] + delta;
      else if (norm[static_cast<std::size_t>(k)] <= level + level_tol)
        // Keep weakly-worse-off jobs at their exact value: relaxing them
        // even slightly frees O(n·tol) slack on large instances, which
        // would let the probe succeed against genuinely fair vectors.
        floors[static_cast<std::size_t>(k)] =
            aggregates[static_cast<std::size_t>(k)];
      else
        floors[static_cast<std::size_t>(k)] = 0.0;
    }
    net.solve(floors);
    if (net.saturated(tol / 64.0)) return false;  // j could be improved
  }
  return true;
}

std::vector<double> lp_max_min_aggregates(const AllocationProblem& problem) {
  const int n = problem.jobs();
  const int m = problem.sites();
  if (n == 0) return {};

  // LP variables: one per (job, site) cell with positive demand, plus the
  // level t appended when maximizing the common minimum.
  std::vector<std::vector<int>> var_of(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(m), -1));
  int cells = 0;
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s)
      if (problem.demand(j, s) > 0.0)
        var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            cells++;

  // Base rows shared by every solve: site capacities and demand caps.
  auto base_rows = [&](int width) {
    std::vector<lp::Row> rows;
    for (int s = 0; s < m; ++s) {
      lp::Row row;
      row.coeffs.assign(static_cast<std::size_t>(width), 0.0);
      bool any = false;
      for (int j = 0; j < n; ++j) {
        int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
        if (v >= 0) {
          row.coeffs[static_cast<std::size_t>(v)] = 1.0;
          any = true;
        }
      }
      if (!any) continue;
      row.type = lp::RowType::kLe;
      row.rhs = problem.capacity(s);
      rows.push_back(std::move(row));
    }
    for (int j = 0; j < n; ++j)
      for (int s = 0; s < m; ++s) {
        int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
        if (v < 0) continue;
        lp::Row row;
        row.coeffs.assign(static_cast<std::size_t>(width), 0.0);
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        row.type = lp::RowType::kLe;
        row.rhs = problem.demand(j, s);
        rows.push_back(std::move(row));
      }
    return rows;
  };
  auto job_row = [&](int j, int width) {
    lp::Row row;
    row.coeffs.assign(static_cast<std::size_t>(width), 0.0);
    for (int s = 0; s < m; ++s) {
      int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v >= 0) row.coeffs[static_cast<std::size_t>(v)] = 1.0;
    }
    return row;
  };

  std::vector<char> fixed(static_cast<std::size_t>(n), 0);
  std::vector<double> value(static_cast<std::size_t>(n), 0.0);
  int unfixed = 0;
  for (int j = 0; j < n; ++j) {
    if (problem.solo_ceiling(j) <= 0.0)
      fixed[static_cast<std::size_t>(j)] = 1;
    else
      ++unfixed;
  }

  // Feasibility of per-job aggregate floors (floors relaxed a hair so LP
  // noise never rejects a level the level-LP itself certified).
  auto floors_feasible = [&](const std::vector<double>& floors) {
    auto rows = base_rows(cells);
    for (int j = 0; j < n; ++j) {
      if (floors[static_cast<std::size_t>(j)] <= 0.0) continue;
      auto row = job_row(j, cells);
      row.type = lp::RowType::kGe;
      row.rhs = floors[static_cast<std::size_t>(j)];
      rows.push_back(std::move(row));
    }
    return lp::feasible(cells, rows);
  };

  for (int round = 0; round < n + 1 && unfixed > 0; ++round) {
    // Level LP: maximize t with every unfixed job's normalized aggregate
    // at least t and fixed jobs at their values.
    lp::LinearProgram program;
    program.variables = cells + 1;
    const int t_var = cells;
    program.objective.assign(static_cast<std::size_t>(program.variables),
                             0.0);
    program.objective[static_cast<std::size_t>(t_var)] = 1.0;
    for (auto& row : base_rows(cells)) {
      row.coeffs.push_back(0.0);
      program.rows.push_back(std::move(row));
    }
    for (int j = 0; j < n; ++j) {
      auto row = job_row(j, program.variables);
      if (fixed[static_cast<std::size_t>(j)]) {
        if (value[static_cast<std::size_t>(j)] <= 0.0) continue;
        row.type = lp::RowType::kGe;
        row.rhs = value[static_cast<std::size_t>(j)] * (1.0 - 1e-9);
      } else {
        row.coeffs[static_cast<std::size_t>(t_var)] = -problem.weight(j);
        row.type = lp::RowType::kGe;
        row.rhs = 0.0;
      }
      program.rows.push_back(std::move(row));
    }
    auto level_result = lp::solve(program);
    if (level_result.status == lp::LpStatus::kDeadlineExceeded)
      throw util::DeadlineExceeded(
          "leximin level LP interrupted by its stop token");
    AMF_ASSERT(level_result.status == lp::LpStatus::kOptimal,
               "leximin level LP must stay feasible");
    const double level = level_result.objective;

    // Fix exactly the jobs that cannot exceed the level while everyone
    // else holds it.
    const double step = std::max(1e-6 * problem.scale(), 1e-9);
    std::vector<double> floors(value);
    for (int j = 0; j < n; ++j)
      if (!fixed[static_cast<std::size_t>(j)])
        floors[static_cast<std::size_t>(j)] =
            level * problem.weight(j) * (1.0 - 1e-9);
    int newly = 0;
    for (int j = 0; j < n; ++j) {
      if (fixed[static_cast<std::size_t>(j)]) continue;
      auto probe = floors;
      probe[static_cast<std::size_t>(j)] =
          level * problem.weight(j) + step;
      if (!floors_feasible(probe)) {
        fixed[static_cast<std::size_t>(j)] = 1;
        value[static_cast<std::size_t>(j)] = level * problem.weight(j);
        --unfixed;
        ++newly;
      }
    }
    if (newly == 0) {
      for (int j = 0; j < n; ++j) {
        if (fixed[static_cast<std::size_t>(j)]) continue;
        fixed[static_cast<std::size_t>(j)] = 1;
        value[static_cast<std::size_t>(j)] = level * problem.weight(j);
        --unfixed;
      }
    }
  }
  return value;
}

}  // namespace amf::core
