// amf.hpp — Aggregate Max-min Fairness (the paper's primary contribution).
//
// AMF requires the vector of *aggregate* allocations A[j] = Σ_s a[j][s] to
// be (weighted) lexicographically max-min fair over the whole feasible
// region — capacity is shifted between sites on a job's behalf whenever
// that lets a worse-off job catch up. The feasible aggregate set is a
// polymatroid (its rank function is the max flow of the job→site
// transportation network), so progressive filling computes the unique
// max-min fair aggregate vector: raise every unfrozen job's aggregate at a
// common weighted rate, freeze the jobs that hit a tight cut, repeat.
#pragma once

#include "core/allocation.hpp"
#include "core/report.hpp"
#include "flow/parametric.hpp"

namespace amf::core {

/// The AMF allocator.
///
/// Aggregates are the unique (weighted) lex max-min fair vector; the
/// per-site split returned is the one realized by the final max-flow
/// (combine with JctAddon to pick a completion-time-optimized split for
/// the same aggregates).
///
/// Instances are const and thread-safe: per-call diagnostics go into a
/// caller-owned SolveReport (allocate_with_report) or the workspace's
/// report, never into allocator members.
class AmfAllocator final : public Allocator {
 public:
  /// `eps`: relative tolerance of all flow computations; `method`:
  /// critical-level search (cut-Newton default; bisection kept for the
  /// ablation study).
  explicit AmfAllocator(double eps = 1e-9,
                        flow::LevelMethod method =
                            flow::LevelMethod::kCutNewton)
      : eps_(eps), method_(method) {}

  Allocation allocate(const AllocationProblem& problem) const override;

  /// Warm path: reuses the workspace's persistent network (priming it
  /// from `problem` if needed) and fills workspace.report(). Bit-for-bit
  /// identical to the stateless overload.
  Allocation allocate(const AllocationProblem& problem,
                      SolverWorkspace& workspace) const override;

  /// Stateless solve with instrumentation: fills `report` with the solve
  /// count, convergence status and filling trace of this call.
  Allocation allocate_with_report(const AllocationProblem& problem,
                                  SolveReport& report) const override;

  std::string name() const override { return "AMF"; }

 private:
  double eps_;
  flow::LevelMethod method_;
};

/// Progressive-filling engine shared by AMF and E-AMF.
///
/// Computes the weighted lex max-min fair aggregates subject to per-job
/// lower floors (each job's aggregate is at least its floor). `floors`
/// must be jointly feasible — equal-split floors always are; pass zeros
/// for plain AMF. A floor probe that does not saturate them raises
/// InternalError (a solver failure the robust chain falls back from).
/// Returns the allocation realizing the fair aggregates.
///
/// `net`, when given, is a pre-built transportation network presenting
/// exactly this problem's demand/capacity values (e.g. a primed
/// SolverWorkspace's persistent network); filling then skips the network
/// construction. Null builds a fresh network — same results either way.
///
/// The ambient deadline (util::ambient_deadline) makes the fill *anytime*:
/// when it expires, filling halts and the allocation currently realized by
/// the network is returned — a feasible matrix in which every level
/// frozen before the interrupt is already served — with
/// `report->status == kDeadlineExceeded` marking the result partial.
///
/// `report`, when given, receives this fill's trace (overwritten), its
/// max-flow count (added to flow_solves) and its worst level-solve status
/// (merged into status); the caller resets it between calls.
Allocation progressive_fill(
    const AllocationProblem& problem, const std::vector<double>& floors,
    const std::string& policy_name, double eps,
    flow::LevelMethod method = flow::LevelMethod::kCutNewton,
    SolveReport* report = nullptr, flow::TransportNetwork* net = nullptr);

}  // namespace amf::core
