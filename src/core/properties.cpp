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
      double value = 0.0;
      for (int s = 0; s < problem.sites(); ++s)
        value += std::min(allocation.share(k, s) * ratio,
                          problem.demand(i, s));
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
  double worst = 0.0;
  for (int j = 0; j < problem.jobs(); ++j)
    worst = std::max(worst, problem.equal_split_share(j) -
                                allocation.aggregate(j));
  return worst;
}

bool satisfies_sharing_incentive(const AllocationProblem& problem,
                                 const Allocation& allocation, double tol) {
  return max_sharing_incentive_violation(problem, allocation) <=
         tol * problem.scale();
}

}  // namespace amf::core
