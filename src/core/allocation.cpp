#include "core/allocation.hpp"

#include <numeric>

#include "core/workspace.hpp"
#include "util/error.hpp"

namespace amf::core {

Allocation Allocator::allocate(const AllocationProblem& problem,
                               SolverWorkspace& workspace) const {
  workspace.report().reset();
  return allocate(problem);
}

Allocation::Allocation(Matrix shares, std::string policy)
    : shares_(std::move(shares)), policy_(std::move(policy)) {
  aggregates_.reserve(shares_.size());
  std::size_t width = shares_.empty() ? 0 : shares_.front().size();
  for (const auto& row : shares_) {
    AMF_REQUIRE(row.size() == width, "ragged allocation matrix");
    aggregates_.push_back(std::accumulate(row.begin(), row.end(), 0.0));
  }
}

Allocation Allocation::from_network(const flow::TransportNetwork& net,
                                    std::string policy) {
  Allocation a;
  a.shares_ = net.allocation(&a.aggregates_);
  a.policy_ = std::move(policy);
  return a;
}

double Allocation::share(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  return shares_[static_cast<std::size_t>(job)][static_cast<std::size_t>(site)];
}

double Allocation::aggregate(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  return aggregates_[static_cast<std::size_t>(job)];
}

std::vector<double> Allocation::normalized_aggregates(
    const AllocationProblem& p) const {
  AMF_REQUIRE(p.jobs() == jobs(), "allocation/problem size mismatch");
  std::vector<double> norm(aggregates_);
  for (int j = 0; j < jobs(); ++j)
    norm[static_cast<std::size_t>(j)] /= p.weight(j);
  return norm;
}

double Allocation::site_usage(int site) const {
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  double sum = 0.0;
  for (const auto& row : shares_) sum += row[static_cast<std::size_t>(site)];
  return sum;
}

double Allocation::utilization(const AllocationProblem& p) const {
  AMF_REQUIRE(p.sites() == sites(), "allocation/problem size mismatch");
  double cap = p.total_capacity();
  if (cap == 0.0) return 0.0;
  double used = std::accumulate(aggregates_.begin(), aggregates_.end(), 0.0);
  return used / cap;
}

bool Allocation::feasible_for(const AllocationProblem& p, double eps) const {
  if (p.jobs() != jobs()) return false;
  if (jobs() > 0 && p.sites() != sites()) return false;
  const double tol = eps * p.scale();
  // One row-major pass: each share is checked against its demand (zero
  // off the job's sparse row) and added to its site's usage, so every
  // site's sum still runs in ascending job order.
  std::vector<double> usage(static_cast<std::size_t>(sites()), 0.0);
  const flow::DemandRows& demands = p.demand_rows();
  for (int j = 0; j < jobs(); ++j) {
    const auto& row = shares_[static_cast<std::size_t>(j)];
    const auto positive = demands.row(j);
    auto next = positive.begin();
    for (std::size_t s = 0; s < row.size(); ++s) {
      double d = 0.0;
      if (next != positive.end() && next->site == static_cast<int>(s))
        d = (next++)->value;
      const double a = row[s];
      if (a < -tol) return false;
      if (a > d + tol) return false;
      usage[s] += a;
    }
  }
  for (int s = 0; s < sites(); ++s)
    if (usage[static_cast<std::size_t>(s)] > p.capacity(s) + tol) return false;
  return true;
}

}  // namespace amf::core
