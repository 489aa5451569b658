// parametric.hpp — critical water levels on the transportation polytope.
//
// Progressive filling raises the aggregate allocation of every unfrozen
// job at a common (weighted) rate until some capacity constraint binds.
// With source caps that are affine in the level t — cap_j(t) = fixed_j +
// slope_j·t — the max-flow value maxflow(t) is concave piecewise linear,
// so the largest feasible level solves maxflow(t) = Σ_j cap_j(t).
//
// We find it by Newton iteration on min-cuts (a Dinkelbach-style scheme):
// starting from an upper bound, each round solves one max flow, reads off
// the binding cut, and jumps to the level where that cut's (linear) value
// meets the (linear) total demand. The iterates decrease monotonically and
// land exactly on the critical level after finitely many distinct cuts; a
// bisection fallback guards against floating-point stalls.
//
// The descent starts at the tightest job cut, not at the segment end:
// t_jobs = min over sources with slope > 0 of (solo_ceiling(j) − fixed_j)
// / slope_j, clamped to [t_lo, t_hi]. No flow routes more than
// solo_ceiling(j) into job j, so the cut around j alone is a true cut and
// t_jobs bounds the critical level from above. Newton iterates from any
// upper bound fall monotonically to it, and a lower start never needs more
// distinct cuts. When the probe at t_jobs is feasible the round ends after
// that one max flow: the binding job has no residual path to the sink, so
// it freezes. A round bound by a job's own demand therefore costs one max
// flow (counted in amf_flow_job_cut_hits).
#pragma once

#include <vector>

#include "flow/transport.hpp"
#include "util/deadline.hpp"

namespace amf::flow {

/// Affine source capacity: cap(t) = max(0, fixed + slope * t).
struct ParametricSource {
  double fixed = 0.0;
  double slope = 0.0;
};

/// How the critical level is located. kCutNewton is the default
/// (few max-flow solves, lands exactly on the breakpoint); kBisection is
/// the naive alternative kept for the ablation study (bench F10).
enum class LevelMethod { kCutNewton, kBisection };

/// Convergence quality of one critical-level solve. Surfaced as data (not
/// a throw) so a resilience-minded caller can decide to retry with a
/// looser tolerance or hand off to a fallback solver.
enum class LevelStatus {
  kConverged,         ///< landed on the critical level cleanly
  kIterationCapped,   ///< Newton budget exhausted; bisection closed the
                      ///< bracket, result valid but lower-confidence
  kDegenerate,        ///< a bracket/contract invariant failed numerically;
                      ///< the returned allocation must not be trusted
  kDeadlineExceeded,  ///< the stop token fired mid-solve; the returned
                      ///< level is the best *known-feasible* one (a
                      ///< conservative partial answer, never an
                      ///< overestimate), not the critical level
};

/// Optional instrumentation collected by solve_critical_level. This is the
/// per-invocation view a caller threads through one solve; cumulative
/// process-wide counts (solves, Newton iterations, bisection steps, probe
/// flows, cut-hint hits/misses, job-cut hits) live in the obs metric
/// registry under amf_flow_* and need no stats object to be collected.
struct LevelSolveStats {
  int flow_solves = 0;  ///< max-flow computations performed
  /// Worst status observed across all solves feeding this stats object.
  LevelStatus worst = LevelStatus::kConverged;

  void observe(LevelStatus s) {
    if (static_cast<int>(s) > static_cast<int>(worst)) worst = s;
  }
};

/// Cross-solve warm-start hint for solve_critical_level: the site set of
/// the binding min cut a previous, related solve ended on, plus the level
/// it bound (`t_ref`, used to pick each job's side of the cut when
/// re-evaluating it under new sources). The capacity of *any* cut upper-
/// bounds total demand, so a stale hint is still a sound starting level —
/// at worst the descent takes its normal course; when the cut still binds
/// (the common case in an online event stream) the first probe lands on
/// the critical level and the solve finishes with a single max flow and no
/// cut extraction. The landed-on level can differ from the cold descent's
/// in the last ulps (ties between binding cuts break differently), so
/// hints are reserved for relaxed-realization solves, never replay-exact
/// ones.
struct LevelHint {
  bool valid = false;
  std::vector<char> site_in_source_side;
  double t_ref = 0.0;
};

/// Result of a critical-level solve on one affine segment [t_lo, t_hi].
struct CriticalLevel {
  /// Convergence quality of this solve (see LevelStatus).
  LevelStatus status = LevelStatus::kConverged;
  /// The largest feasible level within the segment.
  double level = 0.0;
  /// True when the whole segment is feasible (level == t_hi and nothing
  /// binds strictly inside); the caller should advance to the next segment.
  bool segment_exhausted = false;
  /// Per-job: can this job's aggregate still increase at `level`?
  /// (Residual path to the sink exists.) Jobs with `false` are the ones a
  /// progressive-filling caller must freeze.
  std::vector<char> can_increase;
};

/// Finds the largest t in [t_lo, t_hi] such that source caps cap_j(t) are
/// simultaneously realizable (max flow saturates all source arcs). On
/// return `net` holds the solve at `level`; read net.allocation() for the
/// realizing matrix.
///
/// Preconditions: the caps at t_lo are feasible; slopes are non-negative.
/// Demand and site-capacity values are read from `net` itself (the network
/// is the single source of truth, enabling persistent-topology reuse).
///
/// kCutNewton starts its descent at the tightest job cut (see the header
/// comment); kBisection brackets the whole segment. `hint`, when non-null,
/// starts the Newton descent at the hinted cut's bound instead when that
/// is tighter, and is updated on return with the cut this solve ended on.
/// See LevelHint for the soundness argument and the replay-exactness
/// caveat.
///
/// `stop` (explicit, else the ambient token) is polled before every
/// feasibility probe; when it fires the solve returns immediately with
/// status kDeadlineExceeded and `level` set to the best level it had
/// already proven feasible (at worst t_lo) — a conservative answer a
/// caller can still act on.
CriticalLevel solve_critical_level(
    TransportNetwork& net, const std::vector<ParametricSource>& sources,
    double t_lo, double t_hi, double eps = FlowNetwork::kDefaultEps,
    LevelMethod method = LevelMethod::kCutNewton,
    LevelSolveStats* stats = nullptr, LevelHint* hint = nullptr,
    const util::StopToken* stop = nullptr);

}  // namespace amf::flow
