// report.hpp — per-call solver instrumentation.
//
// Allocators are const and thread-safe: they never store per-call state in
// members. Callers that want diagnostics (solve counts, convergence
// status, the filling trace) pass a SolveReport — either directly via
// AmfAllocator::allocate_with_report or through a SolverWorkspace — and
// read it after the call.
#pragma once

#include <vector>

#include "flow/parametric.hpp"

namespace amf::core {

/// Diagnostic trace of one progressive-filling run: which round froze
/// each job and at what weight-normalized water level — the "why did my
/// job get exactly this much" explanation. Jobs frozen in the same round
/// share a bottleneck (a tight set of sites); later rounds freeze at
/// weakly higher levels.
struct FillTrace {
  std::vector<int> freeze_round;     ///< per job; 0 = structurally zero
  std::vector<double> freeze_level;  ///< per job: aggregate / weight
  int rounds = 0;                    ///< total filling rounds executed
};

/// Everything one allocate() call reports about itself.
struct SolveReport {
  int flow_solves = 0;  ///< max-flow computations performed
  /// Worst level-solve status observed. kIterationCapped results are
  /// feasible but lower-confidence; RobustAllocator serves them.
  flow::LevelStatus status = flow::LevelStatus::kConverged;
  FillTrace trace;   ///< progressive-filling explanation (AMF/E-AMF)
  bool warm = false; ///< served from a primed workspace network

  void reset() { *this = SolveReport{}; }
};

}  // namespace amf::core
