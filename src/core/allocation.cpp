#include "core/allocation.hpp"

#include <numeric>

#include "core/workspace.hpp"
#include "util/error.hpp"

namespace amf::core {

Allocation Allocator::allocate_with_report(const AllocationProblem& problem,
                                           SolveReport& report) const {
  report.reset();
  return allocate(problem);
}

Allocation Allocator::allocate(const AllocationProblem& problem,
                               SolverWorkspace& workspace) const {
  return allocate_with_report(problem, workspace.report());
}

Allocation::Allocation(flow::ShareRows shares, std::string policy)
    : shares_(std::move(shares)), policy_(std::move(policy)) {
  // Skipped zeros would add exactly 0.0 to a sum that starts at +0.0, so
  // these sums equal dense row sums bit for bit.
  aggregates_.reserve(static_cast<std::size_t>(jobs()));
  for (int j = 0; j < jobs(); ++j) {
    const auto row = shares_[static_cast<std::size_t>(j)];
    aggregates_.push_back(std::accumulate(row.begin(), row.end(), 0.0));
  }
}

static flow::ShareRows nonzero_rows(const Matrix& shares) {
  flow::ShareRows rows;
  rows.width = shares.empty() ? 0 : static_cast<int>(shares.front().size());
  for (const auto& row : shares) {
    AMF_REQUIRE(static_cast<int>(row.size()) == rows.width,
                "ragged allocation matrix");
    for (std::size_t s = 0; s < row.size(); ++s)
      if (row[s] != 0.0) {
        rows.sites.push_back(static_cast<int>(s));
        rows.values.push_back(row[s]);
      }
    rows.first.push_back(static_cast<int>(rows.values.size()));
  }
  return rows;
}

Allocation::Allocation(const Matrix& shares, std::string policy)
    : Allocation(nonzero_rows(shares), std::move(policy)) {}

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
  return shares_.at(job, site);
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
  for (int j = 0; j < jobs(); ++j) sum += shares_.at(j, site);
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
  // off the job's demand row) and added to its site's usage, so every
  // site's sum still runs in ascending job order.
  std::vector<double> usage(static_cast<std::size_t>(sites()), 0.0);
  for (int j = 0; j < jobs(); ++j) {
    const auto values = shares_[static_cast<std::size_t>(j)];
    const auto sites_of = shares_.sites_of(static_cast<std::size_t>(j));
    for (std::size_t k = 0; k < values.size(); ++k) {
      const double a = values[k];
      if (a < -tol || a > p.demands().at(j, sites_of[k]) + tol) return false;
      usage[static_cast<std::size_t>(sites_of[k])] += a;
    }
  }
  for (int s = 0; s < sites(); ++s)
    if (usage[static_cast<std::size_t>(s)] > p.capacity(s) + tol) return false;
  return true;
}

}  // namespace amf::core
