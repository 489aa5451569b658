// oracle.hpp — reference computations that only tests and benches use.
//
// Each function here recomputes something the shipping library already
// serves, by a slower route that shares none of its code path, or attacks
// an allocator from outside. None of them is on a served path, so they
// live in their own library (amf_oracle) that amf_serve and amf_route do
// not link. The oracles the served system itself needs stay in amf_core:
// is_max_min_fair and lp_max_min_aggregates (core/reference.hpp), and
// the property checkers behind `amf_solve --report` (core/properties.hpp).
#pragma once

#include <vector>

#include "core/allocation.hpp"
#include "util/rng.hpp"

namespace amf::oracle {

/// Exhaustive search over integer allocations a[j][s] ∈ {0, 1, ...,
/// floor(min(d, C))} (site sums capped by floor(C)); returns the
/// lexicographically max-min best aggregate vector found. Intended for
/// instances with at most ~6 demand cells; throws if the grid would
/// exceed `max_points` (default 10^7) enumeration points.
std::vector<double> brute_force_max_min_aggregates(
    const core::AllocationProblem& problem, long long max_points = 10'000'000);

/// Result of a randomized strategy-proofness probe.
struct StrategyProbeResult {
  double max_gain = 0.0;   ///< best true-utility gain any misreport found
  int trials = 0;          ///< number of misreports attempted
  int profitable = 0;      ///< misreports with gain above tolerance
};

/// Attacks the allocator on behalf of `job`: draws `trials` random
/// misreported demand vectors (scalings, site hiding, inflation), re-runs
/// the allocator, and measures the job's *true* usable allocation
/// Σ_s min(a'[job][s], d_true[job][s]) against its truthful aggregate.
/// A strategy-proof policy admits no gain beyond tolerance.
StrategyProbeResult probe_strategy_proofness(
    const core::AllocationProblem& problem, const core::Allocator& allocator,
    int job, int trials, util::Rng& rng, double tol = 1e-6);

/// The placement-stability optimum as a direct linear program over the
/// placement polytope: among the allocations with exactly `target`'s
/// aggregates, one with the least total L1 distance to `previous`
/// (variables a[j][s] and a churn envelope c[j][s] ≥ |a − prev|). The
/// differential reference for core::StabilityAddon, which computes the
/// same optimum as one min-cost flow.
core::Allocation min_churn_lp(const core::AllocationProblem& problem,
                              const core::Allocation& target,
                              const core::Allocation& previous,
                              double eps = 1e-9);

}  // namespace amf::oracle
