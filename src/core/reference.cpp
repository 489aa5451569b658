#include "core/reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "flow/transport.hpp"
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

}  // namespace amf::core
