// drf.hpp — Dominant Resource Fairness allocators, single-site and
// aggregate, on a multi-resource core::AllocationProblem.
//
// The instance is the one AllocationProblem::multi builds: per-site
// per-resource capacities capacity(s, r), per-task Leontief profiles
// profile(j, r), and per-site task caps task_demand(j, s) (0 = no data
// there). The DRF code reads these raw task-unit inputs, not the flow
// lift's effective view. Fairness is defined on the *aggregate dominant
// share*: the fraction of the system-wide pool of a job's dominant
// resource that its tasks consume across all sites. A task allocation is
// a jobs × sites core::Matrix of (divisible) task counts.
//
// Per-site DRF (the natural multi-resource baseline, what Mesos/YARN do
// independently in every cluster): at each site, progressive filling on
// the site-local dominant shares with task caps — computed in closed
// form by bisection on the common level.
//
// Aggregate DRF (ADRF, the multi-resource analogue of the paper's AMF):
// the vector of *aggregate* dominant shares D_j = X_j·δ_j is
// lexicographically max-min fair over the joint feasible region. Since
// Leontief constraints are linear but not flow-representable, ADRF runs
// the LP substrate's sequential leximin (lp/leximin.hpp) and then a
// Pareto top-up LP that maximizes total tasks subject to the fair floors.
//
// Preconditions of the allocators and the oracle: an instance built by
// multi(), unit weights (DRF is unweighted), and positive total capacity
// for every resource some job's profile demands.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace amf::multiresource {

/// Σ_s capacity(s, r) — the system-wide pool of resource r.
double total_capacity(const core::AllocationProblem& problem, int resource);

/// Dominant share contributed by ONE task of job j:
/// max_r profile(j, r) / total_capacity(r). The aggregate dominant share
/// of the job is linear in its total task count: D_j = X_j · δ_j.
double dominant_share_per_task(const core::AllocationProblem& problem,
                               int job);

/// argmax of the above.
int dominant_resource(const core::AllocationProblem& problem, int job);

/// Per-job aggregate dominant shares of a task allocation.
std::vector<double> dominant_shares(const core::AllocationProblem& problem,
                                    const core::Matrix& x);

/// 0 <= x <= task caps and every site's resource capacities respected
/// (tolerance eps relative to the largest capacity, cap or profile entry).
bool feasible(const core::AllocationProblem& problem, const core::Matrix& x,
              double eps = 1e-7);

/// Per-site DRF baseline.
class PerSiteDrfAllocator {
 public:
  core::Matrix allocate(const core::AllocationProblem& problem) const;
};

/// Aggregate DRF allocator (the multi-site extension).
class AggregateDrfAllocator {
 public:
  core::Matrix allocate(const core::AllocationProblem& problem) const;
};

/// Definitional oracle: is `shares` the lex max-min fair vector of
/// aggregate dominant shares? (Feasible, and no job can gain while every
/// weakly-worse-off job keeps its share — each probe is one LP.)
bool is_aggregate_drf_fair(const core::AllocationProblem& problem,
                           const std::vector<double>& shares,
                           double tol = 1e-5);

}  // namespace amf::multiresource
