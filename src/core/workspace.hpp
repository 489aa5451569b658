// workspace.hpp — reusable solver state for online reallocation.
//
// A SolverWorkspace owns everything an allocator can profitably keep
// between related solves: the persistent-topology transportation network,
// scratch buffers, and the per-call SolveReport.
// Allocators stay const and stateless — all warm-start state lives here,
// one workspace per solve stream (one simulator, one thread).
//
// Lifecycle:
//   * prime(problem[, ceilings]) builds the persistent network from a
//     problem snapshot; `ceilings` reserves arcs for demands that are
//     currently masked to zero but may become positive later.
//   * apply(delta) keeps the network in sync with
//     AllocationProblem::apply(delta) — the caller applies each delta to
//     both, in the same order.
//   * allocate(problem, workspace) on a primed workspace reuses the
//     network; results are bit-identical to the stateless path.
//   * invalidate() drops all warm state; the next allocate re-primes.
//     A delta the network cannot represent (a positive demand on an
//     unreserved arc) auto-invalidates instead of failing.
#pragma once

#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "core/report.hpp"
#include "flow/transport.hpp"

namespace amf::core {

/// Mutable cross-call solver state. Not thread-safe: use one workspace
/// per concurrent solve stream.
class SolverWorkspace {
 public:
  SolverWorkspace() = default;

  /// Per-call instrumentation of the most recent allocate() through this
  /// workspace. Reset at the start of every such call.
  SolveReport& report() { return report_; }
  const SolveReport& report() const { return report_; }

  /// True when the persistent network is built and in sync.
  bool primed() const { return transport_.has_value(); }

  /// Builds the persistent network from `problem`. When `arc_ceilings`
  /// (one row per job, covering every positive demand) is given, arcs are
  /// reserved on all its entries, so demands masked to zero today can be
  /// raised later without a rebuild.
  void prime(const AllocationProblem& problem,
             const flow::DemandRows* arc_ceilings = nullptr);

  /// Mirrors a delta already applied (or about to be applied) to the
  /// problem. No-op when unprimed; auto-invalidates on a delta the
  /// persistent topology cannot represent.
  void apply(const ProblemDelta& delta);

  /// Drops all warm state (network and row map).
  void invalidate();

  /// The persistent network. Only valid when primed().
  flow::TransportNetwork& transport() { return *transport_; }

  /// Rebuilds the network without its dead (departed-job) rows once the
  /// rows masked since the last rebuild reach a quarter of the rows it
  /// holds. Safe to call any time; bit-for-bit neutral.
  void maybe_compact();

  /// Scratch vector of length n, reused across calls (contents undefined).
  std::vector<double>& scratch(std::size_t n) {
    scratch_.resize(n);
    return scratch_;
  }

  /// Bookkeeping slot for RobustAllocator: index of the fallback tier
  /// that served the previous call (-1 = none). The chain invalidates the
  /// workspace whenever the serving tier changes, so a network primed by
  /// one tier's solve parameters is never warm-reused by another's.
  int serving_tier = -1;

 private:
  std::optional<flow::TransportNetwork> transport_;
  std::vector<int> rows_;  ///< problem row -> persistent network row id
  /// Per-row dominant-share coefficient γ (all 1.0 on scalar problems).
  /// Deltas carry raw task units; the network speaks dominant units, so
  /// kDemandSet values are scaled by this mirror on the way in.
  std::vector<double> gammas_;
  std::vector<double> scratch_;
  SolveReport report_;
};

}  // namespace amf::core
