// simplex.hpp — a small dense linear-programming substrate.
//
// The multi-resource extension (aggregate DRF over multiple sites) needs
// feasibility and optimization over Leontief resource constraints, which
// are linear but not flow-representable. This is a self-contained
// two-phase primal simplex on a dense tableau with Bland's rule —
// unconditionally terminating, built for the small/medium LPs the
// allocators generate (hundreds of variables and rows), not for
// industrial scale.
#pragma once

#include <vector>

namespace amf::lp {

/// Row sense of one linear constraint.
enum class RowType { kLe, kGe, kEq };

/// One constraint: coeffs · x  (<= | >= | ==)  rhs.
struct Row {
  std::vector<double> coeffs;
  RowType type = RowType::kLe;
  double rhs = 0.0;
};

/// maximize objective · x subject to rows, x >= 0.
/// (Minimize by negating the objective; variable upper bounds are rows.)
struct LinearProgram {
  int variables = 0;
  std::vector<double> objective;  // empty = pure feasibility problem
  std::vector<Row> rows;
};

/// Solver outcome. kIterationLimit means the pivot budget ran out before
/// optimality was proven — the result carries no usable solution, but the
/// condition is surfaced as a status (not a throw) so callers can react:
/// retry with a looser tolerance, or fall back to another solver.
enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;  // primal solution (valid when kOptimal)
};

/// Phase 1 declares a program feasible when its total artificial
/// infeasibility is at most this multiple of `eps` (an absolute amount).
inline constexpr double kFeasibilitySlack = 1024.0;

/// Default pivot budget: far above anything the allocators' LPs need
/// (Bland's rule guarantees termination; the cap guards degenerate
/// cycling caused by floating-point noise).
inline constexpr long kDefaultMaxIterations = 1'000'000;

/// Solves the LP. `eps` is the pivot/feasibility tolerance;
/// `max_iterations` bounds the total pivot count across both phases.
/// Runs to completion: it polls no deadline and reads no clock.
LpResult solve(const LinearProgram& program, double eps = 1e-9,
               long max_iterations = kDefaultMaxIterations);

/// Convenience: is {rows, x >= 0} feasible? Returns a witness if so.
bool feasible(int variables, const std::vector<Row>& rows,
              std::vector<double>* witness = nullptr, double eps = 1e-9);

}  // namespace amf::lp
