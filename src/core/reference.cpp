#include "core/reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "flow/transport.hpp"
#include "lp/leximin.hpp"
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

  flow::TransportNetwork net(problem.demands(), problem.capacities());

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

  // LP variables: one per (job, site) cell that can carry flow (positive
  // demand at a site with positive capacity), so a job whose solo ceiling
  // is 0 has an empty group and stays at 0.
  lp::GroupedPolytope poly;
  poly.groups.resize(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> at_site(static_cast<std::size_t>(m));
  std::vector<double> cell_demand;
  for (int j = 0; j < n; ++j)
    for (const auto& [s, d] : problem.demands().row(j)) {
      if (problem.capacity(s) <= 0.0) continue;
      poly.groups[static_cast<std::size_t>(j)].push_back(poly.variables);
      at_site[static_cast<std::size_t>(s)].push_back(poly.variables);
      cell_demand.push_back(d);
      ++poly.variables;
    }
  // Rows: site capacities, then demand caps.
  const auto width = static_cast<std::size_t>(poly.variables);
  for (int s = 0; s < m; ++s) {
    const auto& cells = at_site[static_cast<std::size_t>(s)];
    if (cells.empty()) continue;
    lp::Row row;
    row.coeffs.assign(width, 0.0);
    for (int v : cells) row.coeffs[static_cast<std::size_t>(v)] = 1.0;
    row.type = lp::RowType::kLe;
    row.rhs = problem.capacity(s);
    poly.rows.push_back(std::move(row));
  }
  for (std::size_t v = 0; v < width; ++v) {
    lp::Row row;
    row.coeffs.assign(width, 0.0);
    row.coeffs[v] = 1.0;
    row.type = lp::RowType::kLe;
    row.rhs = cell_demand[v];
    poly.rows.push_back(std::move(row));
  }

  // A job's level is its normalized aggregate a_j / w_j, measured in units
  // of the largest weight: with rates w_j / max w the level column stays as
  // well scaled as the aggregates, whatever the weights' magnitude (rates
  // near 1e6 put the level at 1e-7 scale, where the simplex's tolerances
  // let it overshoot a cap by 1e-4). Unit weights keep rates of exactly 1.
  // The freeze probe asks every job for the same extra aggregate.
  const auto& weights = problem.weights();
  const double top = *std::max_element(weights.begin(), weights.end());
  std::vector<double> rates(weights.size());
  for (std::size_t j = 0; j < rates.size(); ++j) rates[j] = weights[j] / top;
  const std::vector<double> rise(static_cast<std::size_t>(n),
                                 std::max(1e-6 * problem.scale(), 1e-9));
  const auto levels = lp::sequential_leximin(poly, rates, rise);
  std::vector<double> aggregates(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < aggregates.size(); ++j)
    aggregates[j] = rates[j] * levels[j];
  return aggregates;
}

}  // namespace amf::core
