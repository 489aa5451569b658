// properties.hpp — checkers for the fairness properties the paper proves
// about AMF: Pareto efficiency, envy-freeness, and the sharing-incentive
// property (which AMF lacks and E-AMF restores). `amf_solve --report`
// prints them; the test suite and bench T1 exercise them across
// thousands of random instances. The strategy-proofness probe is
// test-only and lives in oracle/oracle.hpp.
#pragma once

#include "core/allocation.hpp"

namespace amf::core {

/// Pareto efficiency in aggregates: true iff no job's aggregate can be
/// increased without decreasing another's. Decided exactly by a residual
/// reachability query on the transportation network.
bool is_pareto_efficient(const AllocationProblem& problem,
                         const Allocation& allocation, double eps = 1e-7);

/// Envy of job i toward job k: the value (to i) of k's bundle, clipped to
/// i's demand caps and scaled by the weight ratio φ_i/φ_k, minus i's own
/// aggregate. Returns the maximum envy over all ordered pairs; <= 0 means
/// envy-free.
double max_envy(const AllocationProblem& problem,
                const Allocation& allocation);

bool is_envy_free(const AllocationProblem& problem,
                  const Allocation& allocation, double tol = 1e-7);

/// Sharing incentive: job j's aggregate must reach its equal-split share
/// Σ_s min(d[j][s], C[s]·φ_j/Σφ). Returns the maximum shortfall over
/// jobs; <= 0 means the property holds.
double max_sharing_incentive_violation(const AllocationProblem& problem,
                                       const Allocation& allocation);

bool satisfies_sharing_incentive(const AllocationProblem& problem,
                                 const Allocation& allocation,
                                 double tol = 1e-7);

}  // namespace amf::core
