// reference.hpp — independent correctness oracles for the allocators.
//
// Two ways to validate an AMF result without trusting the AMF code path:
//   1. the *definitional* fixed-point test — a vector is (weighted) max-min
//      fair iff it is feasible and no job's aggregate can be raised while
//      every weakly-worse-off job keeps its value (each probe is one flow
//      feasibility check);
//   2. sequential leximin on the LP substrate, which the reference-LP
//      tier of RobustAllocator also serves.
// The exhaustive integer-grid search for tiny instances is test-only and
// lives in oracle/oracle.hpp.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace amf::core {

/// Definitional test: is `aggregates` the weighted lex max-min fair vector
/// for the instance? `tol` is relative to the instance scale. Exact up to
/// the flow tolerance; cost is jobs+1 max-flow solves.
bool is_max_min_fair(const AllocationProblem& problem,
                     const std::vector<double>& aggregates,
                     double tol = 1e-6);

/// A fully independent computation of the AMF aggregate vector:
/// sequential leximin over the transportation polytope with the LP
/// substrate (Ogryczak procedure — maximize the common minimum with one
/// level LP, fix the jobs pinned at it via per-job feasibility LPs,
/// recurse). Exact up to LP tolerance; O(n) LPs of size n·m. Slower than
/// the flow-based allocator but shares none of its code paths — the
/// strongest differential oracle in the test suite.
std::vector<double> lp_max_min_aggregates(const AllocationProblem& problem);

}  // namespace amf::core
