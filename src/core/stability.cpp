#include "core/stability.hpp"

#include <algorithm>
#include <cmath>

#include "flow/mincost.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {
// Flow tolerance of the min-cost flow and of the aggregate checks.
constexpr double kEps = 1e-9;
}  // namespace

double StabilityAddon::churn(const Allocation& a, const Allocation& b) {
  AMF_REQUIRE(a.jobs() == b.jobs() && a.sites() == b.sites(),
              "churn needs equally shaped allocations");
  // Each row pair is merged over the union of its sites, ascending: a site
  // on neither row would add |0 - 0| = +0.0, which changes no bit.
  double total = 0.0;
  for (int j = 0; j < a.jobs(); ++j) {
    const auto j_row = static_cast<std::size_t>(j);
    const auto av = a.shares()[j_row], bv = b.shares()[j_row];
    const auto as = a.shares().sites_of(j_row), bs = b.shares().sites_of(j_row);
    std::size_t p = 0, q = 0;
    while (p < av.size() || q < bv.size()) {
      if (q == bv.size() || (p < av.size() && as[p] < bs[q])) {
        total += std::abs(av[p++]);
      } else if (p == av.size() || bs[q] < as[p]) {
        total += std::abs(bv[q++]);
      } else {
        total += std::abs(av[p++] - bv[q++]);
      }
    }
  }
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
  if (n == 0) return Allocation(flow::ShareRows{}, policy);
  const int m = problem.sites();

  // Layout: 0 = source, 1..n jobs, n+1..n+m sites, last = sink.
  flow::MinCostFlow net(2 + n + m);
  const flow::NodeId source = 0, sink = 1 + n + m;
  auto job_node = [](int j) { return 1 + j; };
  auto site_node = [n](int s) { return 1 + n + s; };

  double total = 0.0;
  for (int j = 0; j < n; ++j) {
    double agg = target.aggregate(j);
    AMF_REQUIRE(agg >= -kEps * problem.scale(), "negative target aggregate");
    net.add_edge(source, job_node(j), std::max(0.0, agg), 0.0);
    total += std::max(0.0, agg);
  }
  // Per demand entry: a "keep" arc rewarded for staying at the previous
  // share and a "change" arc charged for growth beyond it. Shrinkage churn
  // is (prev - kept), i.e. Σprev - Σkept: the constant drops out and the
  // -1/+1 costs minimize exactly the total L1 distance.
  const flow::DemandRows& rows = problem.demands();
  std::vector<std::pair<flow::EdgeId, flow::EdgeId>> arcs;
  arcs.reserve(rows.entries.size());
  for (int j = 0; j < n; ++j) {
    for (const auto& [s, d] : rows.row(j)) {
      double keep = std::min(previous.share(j, s), d);
      flow::EdgeId keep_arc = net.add_edge(job_node(j), site_node(s),
                                           std::max(0.0, keep), -1.0);
      flow::EdgeId change_arc = net.add_edge(job_node(j), site_node(s),
                                             std::max(0.0, d - keep), 1.0);
      arcs.emplace_back(keep_arc, change_arc);
    }
  }
  for (int s = 0; s < m; ++s)
    net.add_edge(site_node(s), sink, problem.capacity(s), 0.0);

  auto result = net.solve(source, sink,
                          std::numeric_limits<double>::infinity(), kEps);
  AMF_REQUIRE(result.flow >= total - kEps * std::max(problem.scale(), total),
              "target aggregates must be realizable");

  flow::ShareRows shares = flow::ShareRows::zeros_on(rows);
  for (std::size_t k = 0; k < arcs.size(); ++k)
    shares.values[k] = std::max(0.0, net.flow(arcs[k].first)) +
                       std::max(0.0, net.flow(arcs[k].second));
  return Allocation(std::move(shares), policy);
}

}  // namespace amf::core
