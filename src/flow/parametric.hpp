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
// The descent starts at the tightest job cut (or lower, at the global cut
// below), not at the segment end: t_jobs = min over sources with
// slope > 0 of (solo_ceiling(j) − fixed_j) / slope_j, clamped to
// [t_lo, t_hi]. No flow routes more than solo_ceiling(j) into job j, so
// the cut around j alone is a true cut and t_jobs bounds the critical
// level from above. Newton iterates from any upper bound fall
// monotonically to it, and a lower start never needs more distinct cuts.
// When the probe at t_jobs is feasible, the binding job has no residual
// path to the sink and freezes after that one max flow: the round is
// bound by the job's own demand.
//
// Such rounds come in runs: small jobs reach their ceilings one after
// another before any site binds. Given a GallopState (progressive filling
// passes one), a solve whose probe at t_jobs is feasible does not stop
// there but gallops over the job cuts b_1 = t_jobs < b_2 < … inside the
// segment. It probes b_2, b_4, b_8, … and then bisects the indices down to
// the last level b_K of the run. A probe at b_k gives every job whose cut
// lies below b_k the cap it would have been frozen at there,
// max(floor, fixed + slope·cut), and every other job its affine cap at
// b_k: exactly the caps round k of a fill that stops at every job cut
// would probe. Feasibility is monotone in the level, and a job with no
// residual path at a feasible level keeps none higher up, so a job that is
// not at its ceiling but cannot increase at b_k makes every later cut
// infeasible or leaves the run blocked. The run therefore ends at the
// first b_k that is infeasible or at which such a job is stuck, and in
// exact arithmetic the jobs freeze at the levels and in the rounds the
// one-cut-per-round fill gives them. can_increase is read at b_K's own
// flow: a site cut may bind at the same level as b_K's job cut, and the
// jobs behind it freeze in that round too. A run of L demand-bound rounds
// (counted in amf_flow_job_cut_hits) costs O(log L) max flows instead of
// L. The min cut of the infeasible probe at b_{K+1}, where the next round
// starts, is handed to that round (GallopState), so its first Newton step
// needs no max flow.
//
// A second upper bound costs O(m): the global cut, with every job and
// site on the source side, has value Σ_s C_s and no slope, so t* ≤ t_all =
// (Σ_s C_s − Σ_j fixed_j) / Σ_j slope_j. When t_all lies below the job-cut
// start (and no carried gallop cut applies), the descent starts at t_all,
// landed as a Newton step is (clamped to t_lo, snapped onto it within the
// level tolerance). An infeasible probe there continues Newton from its min
// cut: the descent's last cut is the minimal min cut of the linear piece
// of maxflow(t) just above t*, whatever the start, so the level comes out
// of the same cut sums bit for bit. A feasible probe is kept only under a
// closure certificate: the source plus the residual closure of the rising
// jobs that cannot reach the sink is that minimal min cut, read with two
// BFS and no max flow, and its sums must land on exactly the probed level;
// otherwise the descent restarts at the job-cut start. On one-round
// uncapped instances the global cut binds and a round costs one max flow
// instead of two (DESIGN.md §6 has the argument).
#pragma once

#include <vector>

#include "flow/transport.hpp"

namespace amf::flow {

/// Affine source capacity: cap(t) = max(0, fixed + slope * t).
struct ParametricSource {
  double fixed = 0.0;
  double slope = 0.0;
  /// A rising job frozen at its job cut b keeps the cap max(floor, fixed +
  /// slope·b) (progressive filling's floor), in gallop probes above b.
  double floor = 0.0;
  /// Frozen by an earlier round: whether it can increase never ends a
  /// gallop, since the caller will not freeze it again.
  bool frozen = false;
};

/// Job j's job cut: the level at which its cap reaches its solo ceiling,
/// (solo_ceiling(j) − fixed) / slope; +infinity when the cap does not rise.
double job_cut_level(const TransportNetwork& net, const ParametricSource& src,
                     int job);

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
  kDeadlineExceeded,  ///< the deadline expired mid-solve; the returned
                      ///< level is the best *known-feasible* one (a
                      ///< conservative partial answer, never an
                      ///< overestimate), not the critical level
};

/// Optional instrumentation collected by solve_critical_level. This is the
/// per-invocation view a caller threads through one solve; cumulative
/// process-wide counts (solves, Newton iterations, bisection steps, probe
/// flows, job-cut hits) live in the obs metric registry under amf_flow_*
/// and need no stats object to be collected.
struct LevelSolveStats {
  int flow_solves = 0;  ///< max-flow computations performed
  /// Worst status observed across all solves feeding this stats object.
  LevelStatus worst = LevelStatus::kConverged;

  void observe(LevelStatus s) {
    if (static_cast<int>(s) > static_cast<int>(worst)) worst = s;
  }
};

/// What a progressive fill threads through its level solves to let them
/// gallop. A solve given one gallops over a run of demand-bound rounds
/// (header comment), and the caller then freezes every job whose job cut
/// (at least t_lo) lies at or below the returned level at that cut.
/// Without one a solve ends at the first feasible job cut, as a single
/// freeze round. The state carries the min cut of the infeasible probe a
/// gallop ended on, at `cut_level`, the job cut where the next round
/// starts: its caps are the ones that round probes first, and a min cut is
/// the same for every max flow, so the round takes its first Newton step
/// from it instead of repeating the max flow. It is only kept when no job
/// froze at the gallop's level other than those at their ceilings, so that
/// the next round's caps match.
struct GallopState {
  bool cut_valid = false;
  double cut_level = 0.0;
  MinCut cut;
};

/// Result of a critical-level solve on one affine segment [t_lo, t_hi].
struct CriticalLevel {
  /// Convergence quality of this solve (see LevelStatus).
  LevelStatus status = LevelStatus::kConverged;
  /// The largest feasible level within the segment. After a gallop it is
  /// the last job cut of the run; the jobs whose cut (at least t_lo) lies
  /// below it stopped rising at their cut.
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
/// kCutNewton starts its descent at the lower of the tightest job cut and
/// the global cut's level, and, when the job cut's probe is feasible and
/// `gallop` is given, gallops over the following job cuts (see the header
/// comment); kBisection brackets the whole segment.
/// The ambient deadline (util::ambient_deadline) is polled before every
/// feasibility probe; when it expires the solve returns immediately with
/// status kDeadlineExceeded and `level` set to the best level it had
/// already proven feasible (at worst t_lo) — a conservative answer a
/// caller can still act on.
///
/// `gallop`, when non-null, lets a feasible first probe at a job cut
/// gallop over the run of job cuts after it (see GallopState), and carries
/// the gallop's last infeasible cut from one solve of a fill to the next.
CriticalLevel solve_critical_level(
    TransportNetwork& net, const std::vector<ParametricSource>& sources,
    double t_lo, double t_hi, double eps = FlowNetwork::kDefaultEps,
    LevelMethod method = LevelMethod::kCutNewton,
    LevelSolveStats* stats = nullptr, GallopState* gallop = nullptr);

}  // namespace amf::flow
