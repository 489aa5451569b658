// stability.hpp — placement stability under AMF: minimize reallocation
// churn.
//
// In online execution the allocator runs at every arrival/completion.
// The AMF aggregate vector moves smoothly, but the max-flow realization
// is an arbitrary vertex of the transportation polytope — consecutive
// events can reshuffle placements wholesale even when aggregates barely
// change, and in a real cluster every reshuffled unit is preemption and
// data-transfer cost. This add-on picks, among the allocations realizing
// the target aggregates exactly, one minimizing the total L1 distance to
// the previous allocation — one min-cost max-flow: each job→site cell
// gets a "keep" arc rewarded up to the previous share and a "change" arc
// charged for the rest of its demand cap. The same optimum as a linear
// program over the placement polytope is oracle::min_churn_lp, which the
// tests compare against.
#pragma once

#include "core/allocation.hpp"

namespace amf::core {

/// Churn-minimizing redistribution with aggregates pinned.
class StabilityAddon {
 public:
  explicit StabilityAddon(double eps = 1e-9);

  /// Returns an allocation with `target`'s aggregates (exactly) whose
  /// per-site shares are as close as possible (total L1) to `previous`.
  /// `previous` must have the same shape; pass a zero allocation for the
  /// first event. The result's policy name is target.policy() + "+stable".
  Allocation optimize(const AllocationProblem& problem,
                      const Allocation& target,
                      const Allocation& previous) const;

  /// Total L1 distance between two allocations of the same shape.
  static double churn(const Allocation& a, const Allocation& b);

 private:
  double eps_;
};

}  // namespace amf::core
