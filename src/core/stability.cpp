#include "core/stability.hpp"

#include <algorithm>
#include <cmath>

#include "flow/mincost.hpp"
#include "util/error.hpp"

namespace amf::core {

StabilityAddon::StabilityAddon(double eps) : eps_(eps) {
  AMF_REQUIRE(eps > 0.0, "eps must be positive");
}

double StabilityAddon::churn(const Allocation& a, const Allocation& b) {
  AMF_REQUIRE(a.jobs() == b.jobs() && a.sites() == b.sites(),
              "churn needs equally shaped allocations");
  double total = 0.0;
  for (int j = 0; j < a.jobs(); ++j)
    for (int s = 0; s < a.sites(); ++s)
      total += std::abs(a.share(j, s) - b.share(j, s));
  return total;
}

Allocation StabilityAddon::optimize(const AllocationProblem& problem,
                                    const Allocation& target,
                                    const Allocation& previous) const {
  const int n = problem.jobs();
  AMF_REQUIRE(target.jobs() == n, "target/problem size mismatch");
  AMF_REQUIRE(previous.jobs() == n && previous.sites() == target.sites(),
              "previous/target shape mismatch");
  const std::string policy = target.policy().empty()
                                 ? std::string("stable")
                                 : target.policy() + "+stable";
  if (n == 0) return Allocation(Matrix{}, policy);
  const int m = problem.sites();

  // Layout: 0 = source, 1..n jobs, n+1..n+m sites, last = sink.
  flow::MinCostFlow net(2 + n + m);
  const flow::NodeId source = 0, sink = 1 + n + m;
  auto job_node = [](int j) { return 1 + j; };
  auto site_node = [n](int s) { return 1 + n + s; };

  double total = 0.0;
  for (int j = 0; j < n; ++j) {
    double agg = target.aggregate(j);
    AMF_REQUIRE(agg >= -eps_ * problem.scale(), "negative target aggregate");
    net.add_edge(source, job_node(j), std::max(0.0, agg), 0.0);
    total += std::max(0.0, agg);
  }
  // Per cell: a "keep" arc rewarded for staying at the previous share and
  // a "change" arc charged for growth beyond it. Shrinkage churn is
  // (prev - kept), i.e. Σprev - Σkept: the constant drops out and the
  // -1/+1 costs minimize exactly the total L1 distance.
  std::vector<std::vector<std::pair<flow::EdgeId, flow::EdgeId>>> arcs(
      static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    arcs[static_cast<std::size_t>(j)].assign(static_cast<std::size_t>(m),
                                             {-1, -1});
    for (int s = 0; s < m; ++s) {
      double d = problem.demand(j, s);
      if (d <= 0.0) continue;
      double keep = std::min(previous.share(j, s), d);
      flow::EdgeId keep_arc = net.add_edge(job_node(j), site_node(s),
                                           std::max(0.0, keep), -1.0);
      flow::EdgeId change_arc = net.add_edge(job_node(j), site_node(s),
                                             std::max(0.0, d - keep), 1.0);
      arcs[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] = {
          keep_arc, change_arc};
    }
  }
  for (int s = 0; s < m; ++s)
    net.add_edge(site_node(s), sink, problem.capacity(s), 0.0);

  auto result = net.solve(source, sink,
                          std::numeric_limits<double>::infinity(), eps_);
  if (!result.complete)
    throw util::DeadlineExceeded(
        "stability min-cost realization interrupted by its stop token");
  AMF_REQUIRE(result.flow >= total - eps_ * std::max(problem.scale(), total),
              "target aggregates must be realizable");

  Matrix shares(static_cast<std::size_t>(n),
                std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s) {
      auto [keep_arc, change_arc] =
          arcs[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (keep_arc < 0) continue;
      shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
          std::max(0.0, net.flow(keep_arc)) +
          std::max(0.0, net.flow(change_arc));
    }
  return Allocation(std::move(shares), policy);
}

}  // namespace amf::core
