// robust.hpp — graceful degradation for the allocator pipeline.
//
// An online scheduler cannot afford an allocator that throws: every
// reallocation point must produce *some* feasible allocation, even when
// the primary solver hits a numerical corner. RobustAllocator wraps any
// policy in a fixed fallback chain, ordered from highest fidelity to
// unconditional availability:
//
//   1. the wrapped policy itself;
//   2. AMF re-solved with a relaxed flow tolerance (most non-convergence
//      is tolerance-induced degeneracy; loosening eps usually cures it);
//   3. AMF with the bisection level method (slower, but immune to the
//      cut-Newton degeneracies);
//   4. the LP reference solver (sequential leximin on the simplex
//      substrate — shares no code with the flow path);
//   5. per-site max-min (closed-form water-filling; cannot fail).
//
// A tier is rejected when it throws InternalError (solver bug or
// non-convergence), is interrupted by its deadline, or returns an
// infeasible allocation; ContractError (malformed input) propagates —
// feeding the chain a broken problem is a caller bug, not a solver one.
// Every decision is counted in the obs metric registry
// (amf_core_fallback_served_<tier> / amf_core_fallback_failures_<tier>) on
// a per-instance shard, so operators see which tier served each event both
// globally (Registry::global().snapshot()) and per wrapper
// (fallback_stats(), an exact per-instance view).
//
// Deadlines (anytime operation). With `RobustConfig::time_budget_ms` set
// (or an ambient util::StopToken installed around the call), the chain is
// additionally *latency-bounded*: each tier runs under a sub-deadline of
// half of the remaining budget — so successive tiers get
// geometrically shrinking slices and some budget always remains for the
// finishing pass — and a tier whose stop token fires is treated like a
// failed tier (counted in amf_core_deadline_exceeded_<tier>). The
// closed-form per-site tier is exempt: it never polls and always
// completes. When the whole budget is exhausted mid-chain, the best
// deadline-interrupted AMF result seen so far (its frozen levels are
// feasible, only partial) is *salvaged* instead of discarded: per-site
// water-filling distributes the residual capacity on the residual
// demands, and the combined allocation is served as the pseudo-tier
// kSalvage. Budget headroom at serve time is recorded in the
// amf_core_budget_remaining_ms histogram.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/allocation.hpp"
#include "core/amf.hpp"
#include "core/persite.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"

namespace amf::core {

/// The tiers of the degradation chain, in escalation order. kSalvage is
/// not a tier the chain *tries* — it is the serve path used when the time
/// budget runs out and a deadline-interrupted AMF tier left a feasible
/// partial fill worth completing (see the header comment).
enum class FallbackTier {
  kPrimary = 0,
  kRelaxedEps = 1,
  kBisection = 2,
  kReferenceLp = 3,
  kPerSite = 4,
  kSalvage = 5,
};
inline constexpr int kFallbackTierCount = 6;

/// Human-readable tier name ("primary", "relaxed-eps", ...).
const char* to_string(FallbackTier tier);

/// Per-tier service/failure counters since construction (or the last
/// reset_stats()).  A value snapshot built from the wrapper's registry
/// shard by fallback_stats() — the counting itself lives in the metric
/// registry, this struct is only the per-instance view of it.
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

/// Flow tolerance of the relaxed-eps and bisection retry tiers.
inline constexpr double kRelaxedTierEps = 1e-6;

struct RobustConfig {
  /// Wall-clock budget for one allocate() call, in milliseconds. Zero =
  /// unbudgeted (an ambient util::StopToken, if any, still applies). The
  /// closed-form tiers always complete, so the serve latency can exceed
  /// the budget by their (small, polling-free) cost.
  double time_budget_ms = 0.0;
  /// Optional external cancellation handle; when valid and cancelled, the
  /// chain stops at the next poll exactly like an expired deadline.
  util::CancelToken cancel;

  /// Throws ContractError on a negative or non-finite budget.
  void validate() const;
};

/// Per-instance deadline telemetry (snapshot, like FallbackStats).
struct DeadlineStats {
  /// Tier attempts interrupted by the stop token, by tier.
  std::array<long, kFallbackTierCount> deadline_exceeded{};
  /// Events in which at least one tier was deadline-interrupted.
  long deadline_events = 0;
  /// Worst relative fairness gap of a served salvage allocation: how far
  /// the minimum served level fell below the interrupted tier's last
  /// frozen level, in [0, 1]. Zero when no salvage was ever served.
  double worst_salvage_gap = 0.0;
};

/// Wraps a policy in the fallback chain above. The wrapped policy must
/// outlive the wrapper.
class RobustAllocator final : public Allocator {
 public:
  explicit RobustAllocator(const Allocator& primary, RobustConfig config = {});

  /// Never throws InternalError: walks the chain until a tier produces a
  /// feasible allocation (the per-site tier always does).
  Allocation allocate(const AllocationProblem& problem) const override;

  /// Workspace-aware chain walk. The workspace is invalidated whenever the
  /// serving tier differs from the one that served the previous call, so a
  /// network warmed under one tier's solve parameters is never reused by
  /// another tier.
  Allocation allocate(const AllocationProblem& problem,
                      SolverWorkspace& workspace) const override;

  std::string name() const override;

  /// Exact per-instance snapshot of this wrapper's tier counters (read
  /// from its registry shard).
  FallbackStats fallback_stats() const;

  /// Exact per-instance snapshot of the deadline telemetry.
  DeadlineStats deadline_stats() const;

  /// Restarts the per-instance counters from zero.  The shard's values are
  /// folded into the registry's retired base first, so globally scraped
  /// totals stay monotonic.
  void reset_stats();

 private:
  Allocation allocate_impl(const AllocationProblem& problem,
                           SolverWorkspace* workspace) const;

  // Mutable telemetry behind a shared_ptr: allocate() is const (Allocator
  // interface), but counting happens on the pointee, which shared_ptr does
  // not const-propagate to — no `mutable` members needed.  Not thread-safe,
  // matching the allocator itself.
  struct Telemetry {
    std::shared_ptr<obs::Shard> shard;
    FallbackTier last = FallbackTier::kPrimary;
    std::string last_error;
    long deadline_events = 0;
    double worst_salvage_gap = 0.0;
  };

  const Allocator& primary_;
  RobustConfig config_;
  AmfAllocator relaxed_;
  AmfAllocator bisection_;
  PerSiteMaxMin persite_;
  std::shared_ptr<Telemetry> telemetry_;
};

}  // namespace amf::core
