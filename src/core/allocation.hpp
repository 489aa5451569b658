// allocation.hpp — the result type shared by all allocators.
#pragma once

#include <string>
#include <vector>

#include "core/problem.hpp"

namespace amf::core {

/// A concrete per-site allocation plus cached aggregates. Shares are kept
/// as CSR rows (flow::ShareRows): an allocator's result holds exactly its
/// problem's demand support, in ascending site order with zeros kept, so
/// a share off the support is +0.0 by construction.
class Allocation {
 public:
  Allocation() = default;

  /// Shares as rows; aggregates are each row's values added in ascending
  /// site order.
  Allocation(flow::ShareRows shares, std::string policy);

  /// The dense edge (tests, hand-built allocations): `shares[j][s]` is job
  /// j's allocation at site s. Keeps every nonzero entry, so feasible_for
  /// still sees (and rejects) a share off the demand support; the
  /// aggregates equal a dense row sum bit for bit.
  explicit Allocation(const Matrix& shares, std::string policy = {});

  /// The allocation realized by the flow on `net` (its active rows, on
  /// their positive-demand arcs). The aggregates are summed along the arcs
  /// while the shares are written, in one pass per row.
  static Allocation from_network(const flow::TransportNetwork& net,
                                 std::string policy = {});

  int jobs() const { return shares_.rows(); }
  int sites() const { return shares_.width; }

  /// `shares()[j]` spans row j's values, `shares().sites_of(j)` their sites.
  const flow::ShareRows& shares() const { return shares_; }
  /// Job j's share at site s (+0.0 off its row's entries).
  double share(int job, int site) const;

  /// Per-job aggregate allocations A[j] = Σ_s a[j][s].
  const std::vector<double>& aggregates() const { return aggregates_; }
  double aggregate(int job) const;

  /// Aggregates divided by job weights (the quantity max-min fairness
  /// equalizes in the weighted model).
  std::vector<double> normalized_aggregates(const AllocationProblem& p) const;

  /// Σ_j a[j][s] — total usage of site s.
  double site_usage(int site) const;

  /// Fraction of total capacity in use.
  double utilization(const AllocationProblem& p) const;

  /// Checks 0 <= a <= d and per-site capacity with relative tolerance eps,
  /// in one row-major pass over the shares.
  bool feasible_for(const AllocationProblem& p, double eps = 1e-7) const;

  /// Name of the allocator that produced this allocation (for reports).
  const std::string& policy() const { return policy_; }

 private:
  flow::ShareRows shares_;
  std::vector<double> aggregates_;
  std::string policy_;
};

class SolverWorkspace;
struct SolveReport;

/// Common interface of all allocation policies.
///
/// Allocators are const and thread-safe: a single instance may serve
/// concurrent allocate() calls. Warm-start state and per-call
/// instrumentation live in a caller-owned SolverWorkspace.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Computes an allocation for the instance. Implementations must return
  /// feasible allocations and are deterministic.
  virtual Allocation allocate(const AllocationProblem& problem) const = 0;

  /// Stateless solve that also fills `report` (solve count, convergence
  /// status, filling trace), so a caller such as RobustAllocator learns
  /// that a deadline interrupted the solve. The default resets the report
  /// and delegates to allocate(problem); the progressive-filling policies
  /// override it.
  virtual Allocation allocate_with_report(const AllocationProblem& problem,
                                          SolveReport& report) const;

  /// Workspace-aware overload for online solve streams: implementations
  /// that support warm starting reuse the workspace's persistent state and
  /// fill workspace.report(). Results are identical to the stateless
  /// overload (bit-for-bit for the in-tree implementations). The default
  /// delegates to allocate_with_report(problem, workspace.report()).
  virtual Allocation allocate(const AllocationProblem& problem,
                              SolverWorkspace& workspace) const;

  /// Short policy name used in reports ("AMF", "E-AMF", "PSMF", ...).
  virtual std::string name() const = 0;
};

}  // namespace amf::core
