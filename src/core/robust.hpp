// robust.hpp — graceful degradation for the allocator pipeline.
//
// An online scheduler cannot afford an allocator that throws: every
// reallocation point must produce *some* feasible allocation, even when
// the primary solver hits a numerical corner. RobustAllocator wraps any
// policy in a one-step fallback:
//
//   1. the wrapped policy itself;
//   2. salvage: when the time budget interrupted the primary, its
//      feasible partial fill completed closed-form (below);
//   3. per-site max-min (closed-form water-filling; cannot fail). It
//      gives every job at least min(d, C_s/n) at each site, so it keeps
//      the sharing-incentive guarantee.
//
// The primary is rejected when it throws InternalError (solver bug or
// numerical failure), is interrupted by its deadline, or returns an
// infeasible allocation; an iteration-capped but feasible result is
// served. ContractError (malformed input) propagates — feeding the chain
// a broken problem is a caller bug, not a solver one. Every decision is
// counted twice: in the wrapper's own FallbackStats / DeadlineStats
// (fallback_stats(), deadline_stats(); reset_stats() zeroes them) and in
// the process-wide obs metric registry (amf_core_fallback_served_<tier> /
// amf_core_fallback_failures_<tier>, Registry::global().snapshot()), whose
// counters only ever rise.
//
// The primary's convergence status is read through
// Allocator::allocate_with_report (stateless) or the workspace's report,
// so any policy that fills a SolveReport — AMF and E-AMF — can be
// salvaged after a deadline interrupt.
//
// Deadlines (anytime operation). The chain's budget is the ambient
// deadline (util::ScopedDeadline) installed around the call — the
// simulator's event_budget_ms and a served solve's budget_ms both arrive
// this way — and with none installed the call is unbudgeted. Budgeted,
// the chain is *latency-bounded*: the primary runs under a sub-deadline
// of half the remaining budget, so the other half remains for the
// closed-form finish, and an interrupted primary is treated like a
// failed one (counted in amf_core_deadline_exceeded_primary). A budget
// already spent on entry skips the primary outright. The per-site tier
// is exempt: it never polls and always completes. The primary's
// deadline-interrupted AMF result (its frozen levels are feasible, only
// partial) is *salvaged* instead of discarded: per-site water-filling
// distributes the residual capacity on the residual demands, and the
// combined allocation is served as kSalvage. Budget headroom at serve
// time is recorded in the amf_core_budget_remaining_ms histogram.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/allocation.hpp"
#include "core/persite.hpp"

namespace amf::core {

/// The tiers that can serve an event. kSalvage is not a tier the chain
/// *tries* — it is the serve path used when the time budget interrupted
/// the primary and its feasible partial fill is worth completing (see the
/// header comment).
enum class FallbackTier {
  kPrimary = 0,
  kPerSite = 1,
  kSalvage = 2,
};
inline constexpr int kFallbackTierCount = 3;

/// Human-readable tier name ("primary", "per-site", "salvage").
const char* to_string(FallbackTier tier);

/// Per-tier service/failure counts of one wrapper since construction (or
/// the last reset_stats()).
struct FallbackStats {
  std::array<long, kFallbackTierCount> served{};    ///< events served by tier
  std::array<long, kFallbackTierCount> failures{};  ///< tier attempts rejected
  FallbackTier last = FallbackTier::kPrimary;       ///< tier of the last event
  std::string last_error;  ///< what the most recent failing tier reported

  /// Total allocation events served by the chain.
  long calls() const {
    long total = 0;
    for (long s : served) total += s;
    return total;
  }
  /// Events served by any tier below the primary.
  long degraded_calls() const { return calls() - served[0]; }

  /// One-line operator summary: "tier:served/failures ..." for every tier
  /// with activity, plus the serving tier of the last event.  The single
  /// print path shared by tools and benches.
  std::string summary() const;
};

/// Per-instance deadline telemetry (like FallbackStats).
struct DeadlineStats {
  /// Tier attempts interrupted by the deadline, by tier (only the
  /// primary polls, so only its entry can be nonzero).
  std::array<long, kFallbackTierCount> deadline_exceeded{};
  /// Events in which the primary was deadline-interrupted.
  long deadline_events = 0;
  /// Worst relative fairness gap of a served salvage allocation: how far
  /// the minimum served level fell below the interrupted primary's last
  /// frozen level, in [0, 1]. Zero when no salvage was ever served.
  double worst_salvage_gap = 0.0;
};

/// Wraps a policy in the fallback chain above. The wrapped policy must
/// outlive the wrapper.
class RobustAllocator final : public Allocator {
 public:
  explicit RobustAllocator(const Allocator& primary);

  /// Never throws InternalError: serves the primary's allocation when it
  /// is feasible, else the salvage or per-site one (the per-site tier
  /// always produces a feasible allocation). The closed-form salvage and
  /// per-site steps always complete, so a budgeted call can overrun its
  /// deadline by their (small, polling-free) cost.
  Allocation allocate(const AllocationProblem& problem) const override;

  /// Workspace-aware form. The workspace is invalidated whenever the
  /// serving tier differs from the one that served the previous call, and
  /// after an interrupted primary, so a network left by another tier or
  /// by a partial fill is never warm-reused.
  Allocation allocate(const AllocationProblem& problem,
                      SolverWorkspace& workspace) const override;

  std::string name() const override;

  /// This wrapper's tier counts.
  FallbackStats fallback_stats() const;

  /// This wrapper's deadline telemetry.
  DeadlineStats deadline_stats() const;

  /// Restarts the per-instance counts from zero.  The global registry
  /// counters keep their totals.
  void reset_stats();

 private:
  Allocation allocate_impl(const AllocationProblem& problem,
                           SolverWorkspace* workspace) const;

  // Mutable telemetry behind a shared_ptr: allocate() is const (Allocator
  // interface), but counting happens on the pointee, which shared_ptr does
  // not const-propagate to — no `mutable` members needed.  Not thread-safe,
  // matching the allocator itself.
  struct Telemetry {
    FallbackStats fallback;
    DeadlineStats deadline;
  };

  const Allocator& primary_;
  PerSiteMaxMin persite_;
  std::shared_ptr<Telemetry> telemetry_;
};

}  // namespace amf::core
