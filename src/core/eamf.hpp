// eamf.hpp — Enhanced AMF: AMF with the sharing-incentive guarantee.
//
// Plain AMF can leave a job with less than it would get if every site were
// statically partitioned among the n jobs (the sharing-incentive
// benchmark): equalizing aggregates sometimes pays a locality-constrained
// job out of capacity another job was entitled to. E-AMF restores the
// property by running the same progressive filling *subject to per-job
// floors* equal to the equal-split share g[j] = Σ_s min(d[j][s],
// C[s]·φ_j/Σφ). The floors are jointly feasible by construction (the
// static partition itself witnesses them), every job therefore weakly
// prefers sharing, and the result remains Pareto-efficient. Whenever AMF
// already satisfies every floor, E-AMF coincides with AMF.
//
// Reconstruction note: the paper's full text was unavailable; this
// floor-based construction is our realization of "an enhanced version of
// AMF to guarantee the sharing incentive property" (see DESIGN.md §5).
#pragma once

#include "core/allocation.hpp"

namespace amf::core {

/// The Enhanced AMF allocator (sharing incentive guaranteed).
class EnhancedAmfAllocator final : public Allocator {
 public:
  using Allocator::allocate;
  Allocation allocate(const AllocationProblem& problem) const override;
  /// Fills `report` like AmfAllocator's: a deadline-interrupted fill
  /// reports kDeadlineExceeded. The workspace overload (Allocator's
  /// default) routes through here.
  Allocation allocate_with_report(const AllocationProblem& problem,
                                  SolveReport& report) const override;
  std::string name() const override { return "E-AMF"; }

  /// The floors enforced for this instance (equal-split shares).
  static std::vector<double> sharing_floors(const AllocationProblem& problem);
};

}  // namespace amf::core
