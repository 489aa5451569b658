// jct.hpp — job completion times and the paper's completion-time add-on.
//
// With rates held constant, the site-s part of job j finishes at
// w[j][s] / a[j][s]; the job finishes when its slowest site does. The AMF
// aggregate vector is unique, but many per-site splits realize it, and
// they differ wildly in completion time: a split that starves the site
// where a job's work actually lives can stretch its JCT arbitrarily. The
// add-on re-distributes the per-site shares — keeping every aggregate
// exactly — to (approximately lexicographically) minimize completion
// times by progressive filling on per-job speed fractions: all jobs'
// guaranteed rates rise together toward their proportional ideals
// (feasibility = max-flow with lower bounds), jobs that hit a tight cut
// are frozen at their achievable fraction, and the rest keep rising.
// A final per-job closed-form refinement spends any leftover headroom.
//
// One structural fact this surfaces: preserving AMF aggregates exactly
// can force a job's rate at a monopolized hot site to zero (its static
// JCT is then unavoidably unbounded); dynamic execution resolves this via
// reallocation at completion events, which is why the completion-time
// experiments run through the simulator.
#pragma once

#include <vector>

#include "core/allocation.hpp"

namespace amf::core {

/// Completion time per job: max_s w[j][s]/a[j][s] over sites with positive
/// workload; 0 for jobs without work; +inf when some positive workload has
/// a zero rate. Requires the problem to carry workloads.
std::vector<double> completion_times(const AllocationProblem& problem,
                                     const Allocation& allocation);

/// Per-job slowdown relative to the proportional ideal W_j / A_j (1 means
/// the job runs as fast as its aggregate permits); 1 for jobs with no work
/// or no allocation.
std::vector<double> slowdowns(const AllocationProblem& problem,
                              const Allocation& allocation);

/// Aggregate-rate ("divisible placement") completion time W_j / A_j: the
/// completion time when a job's work can migrate freely among its own
/// sites, so only the total rate matters. This is the static lens in
/// which AMF's balance gains translate directly into completion times;
/// the per-site `completion_times` model adds placement constraints on
/// top (and the simulator adds reallocation dynamics). +inf for jobs with
/// work but no allocation, 0 for jobs without work.
std::vector<double> aggregate_rate_completion_times(
    const AllocationProblem& problem, const Allocation& allocation);

/// The completion-time add-on. Stateless; its tuning constants live in
/// jct.cpp.
class JctAddon {
 public:
  /// Returns an allocation with identical aggregates to `base` whose
  /// completion times are no worse (and usually far better) than base's.
  /// The result's policy name is base.policy() + "+JCT".
  Allocation optimize(const AllocationProblem& problem,
                      const Allocation& base) const;
};

}  // namespace amf::core
