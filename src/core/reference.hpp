// reference.hpp — the definitional max-min fairness check.
//
// Validates an AMF result without trusting the AMF code path: a vector is
// (weighted) max-min fair iff it is feasible and no job's aggregate can be
// raised while every weakly-worse-off job keeps its value (each probe is
// one flow feasibility check). The test-only references (the LP leximin
// and the exhaustive integer-grid search) live in oracle/oracle.hpp.
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

}  // namespace amf::core
