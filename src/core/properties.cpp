#include "core/properties.hpp"

#include <algorithm>
#include <cmath>

#include "flow/transport.hpp"
#include "util/error.hpp"

namespace amf::core {

bool is_pareto_efficient(const AllocationProblem& problem,
                         const Allocation& allocation, double eps) {
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  if (problem.jobs() == 0) return true;
  flow::TransportNetwork net(problem.demands(), problem.capacities());
  net.solve(allocation.aggregates(), eps);
  AMF_REQUIRE(net.saturated(eps * 64.0),
              "allocation aggregates must be feasible");
  auto can = net.jobs_can_increase(eps);
  return std::none_of(can.begin(), can.end(), [](char c) { return c != 0; });
}

double max_envy(const AllocationProblem& problem,
                const Allocation& allocation) {
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  double worst = 0.0;
  for (int i = 0; i < problem.jobs(); ++i) {
    const double own = allocation.aggregate(i);
    for (int k = 0; k < problem.jobs(); ++k) {
      if (k == i) continue;
      const double ratio = problem.weight(i) / problem.weight(k);
      // Sites without a share of k would add min(0, d) = +0.0.
      double value = 0.0;
      const auto row = static_cast<std::size_t>(k);
      const auto shares = allocation.shares()[row];
      const auto sites = allocation.shares().sites_of(row);
      for (std::size_t e = 0; e < shares.size(); ++e)
        value += std::min(shares[e] * ratio, problem.demands().at(i, sites[e]));
      worst = std::max(worst, value - own);
    }
  }
  return worst;
}

bool is_envy_free(const AllocationProblem& problem,
                  const Allocation& allocation, double tol) {
  return max_envy(problem, allocation) <= tol * problem.scale();
}

double max_sharing_incentive_violation(const AllocationProblem& problem,
                                       const Allocation& allocation) {
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  const std::vector<double> shares = problem.equal_split_shares();
  double worst = 0.0;
  for (int j = 0; j < problem.jobs(); ++j)
    worst = std::max(worst, shares[static_cast<std::size_t>(j)] -
                                allocation.aggregate(j));
  return worst;
}

bool satisfies_sharing_incentive(const AllocationProblem& problem,
                                 const Allocation& allocation, double tol) {
  return max_sharing_incentive_violation(problem, allocation) <=
         tol * problem.scale();
}

}  // namespace amf::core
