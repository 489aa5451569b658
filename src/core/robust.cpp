#include "core/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/workspace.hpp"
#include "flow/transport.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace amf::core {

const char* to_string(FallbackTier tier) {
  switch (tier) {
    case FallbackTier::kPrimary:
      return "primary";
    case FallbackTier::kPerSite:
      return "per-site";
    case FallbackTier::kSalvage:
      return "salvage";
  }
  return "?";
}

std::string FallbackStats::summary() const {
  std::string out = "served=";
  out += std::to_string(calls());
  out += " degraded=";
  out += std::to_string(degraded_calls());
  for (int i = 0; i < kFallbackTierCount; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (served[idx] == 0 && failures[idx] == 0) continue;
    out += " ";
    out += to_string(static_cast<FallbackTier>(i));
    out += ":";
    out += std::to_string(served[idx]);
    out += "/";
    out += std::to_string(failures[idx]);
  }
  out += " last=";
  out += to_string(last);
  return out;
}

namespace {

/// Relative tolerance of the post-hoc feasibility audit applied to every
/// tier's output before it is accepted.
constexpr double kFeasibilityEps = 1e-6;
/// Fraction of the remaining budget granted to the primary: it gets half,
/// and the other half is left for the closed-form salvage or per-site
/// finish, so an interrupted event still serves close to its budget.
constexpr double kTierBudgetShare = 0.5;

/// Registry metric name for a tier ('-' is not a legal Prometheus
/// character, tier names use '_' in metrics).
std::string tier_metric(const char* prefix, FallbackTier tier) {
  std::string name = prefix;
  for (const char* p = to_string(tier); *p != '\0'; ++p)
    name.push_back(*p == '-' ? '_' : *p);
  return name;
}

// The process-wide view of fallback decisions: registry counters that every
// wrapper adds to, next to its own per-instance Telemetry.
struct FallbackCounters {
  std::array<obs::Counter, kFallbackTierCount> served;
  std::array<obs::Counter, kFallbackTierCount> failures;
  std::array<obs::Counter, kFallbackTierCount> deadline_exceeded;
  obs::Counter tier_transitions;
  obs::Counter deadline_events;
  obs::Histogram budget_remaining;
  FallbackCounters() {
    auto& reg = obs::Registry::global();
    for (int i = 0; i < kFallbackTierCount; ++i) {
      const auto tier = static_cast<FallbackTier>(i);
      const auto idx = static_cast<std::size_t>(i);
      served[idx] =
          reg.counter(tier_metric("amf_core_fallback_served_", tier),
                      "allocation events served by this tier");
      failures[idx] =
          reg.counter(tier_metric("amf_core_fallback_failures_", tier),
                      "tier attempts rejected (threw or failed the audit)");
      deadline_exceeded[idx] =
          reg.counter(tier_metric("amf_core_deadline_exceeded_", tier),
                      "tier attempts interrupted by the event time budget");
    }
    tier_transitions =
        reg.counter("amf_core_tier_transitions",
                    "events whose serving tier differed from the previous "
                    "event's");
    deadline_events =
        reg.counter("amf_core_deadline_events",
                    "allocation events in which at least one tier was "
                    "deadline-interrupted");
    budget_remaining =
        reg.histogram("amf_core_budget_remaining_ms",
                      "time-budget headroom (ms) left when the chain served "
                      "a budgeted allocation event");
  }
};

FallbackCounters& fb_counters() {
  static FallbackCounters counters;
  return counters;
}

}  // namespace

RobustAllocator::RobustAllocator(const Allocator& primary)
    : primary_(primary), telemetry_(std::make_shared<Telemetry>()) {}

FallbackStats RobustAllocator::fallback_stats() const {
  return telemetry_->fallback;
}

DeadlineStats RobustAllocator::deadline_stats() const {
  return telemetry_->deadline;
}

void RobustAllocator::reset_stats() { *telemetry_ = Telemetry{}; }

std::string RobustAllocator::name() const {
  return "Robust(" + primary_.name() + ")";
}

namespace {

/// Completes a deadline-interrupted partial fill into a full allocation:
/// per-site water-filling distributes each site's residual capacity over
/// the residual demands on top of the partial shares. The partial matrix
/// already respects demands and capacities (flow invariants), so the sum
/// does too — levels frozen before the interrupt are preserved, everyone
/// else gets a closed-form fair top-up.
Allocation complete_salvage(const AllocationProblem& problem,
                            const Allocation& partial) {
  const flow::DemandRows& rows = problem.demands();
  flow::ShareRows shares = flow::ShareRows::zeros_on(rows);
  std::vector<double> used(static_cast<std::size_t>(problem.sites()), 0.0);
  std::vector<double> residual(rows.entries.size());
  for (int j = 0; j < problem.jobs(); ++j)
    for (std::size_t k : rows.indices(j)) {
      const int s = rows.entries[k].site;
      shares.values[k] = partial.share(j, s);
      used[static_cast<std::size_t>(s)] += shares.values[k];
      residual[k] = std::max(0.0, rows.entries[k].value - shares.values[k]);
    }
  for (std::size_t s = 0; s < used.size(); ++s)  // now the capacity left
    used[s] = std::max(0.0, problem.capacities()[s] - used[s]);
  const auto extra = water_fill_sites(rows, residual, problem.weights(), used);
  for (std::size_t k = 0; k < extra.size(); ++k) shares.values[k] += extra[k];
  return Allocation(std::move(shares), "Robust/salvage");
}

/// Relative fairness gap of a salvage allocation against the interrupted
/// primary's last frozen level: how far the worst served job (among jobs
/// that can receive anything at all) fell below it, clamped to [0, 1].
double salvage_gap(const AllocationProblem& problem, const Allocation& alloc,
                   double ref_level) {
  if (ref_level <= 0.0) return 0.0;
  const double tol = 1e-12 * std::max(1.0, problem.scale());
  double min_level = std::numeric_limits<double>::infinity();
  for (int j = 0; j < problem.jobs(); ++j) {
    if (problem.solo_ceiling(j) <= tol) continue;  // structurally-zero jobs
    min_level = std::min(min_level, alloc.aggregate(j) / problem.weight(j));
  }
  if (!std::isfinite(min_level)) return 0.0;
  return std::clamp((ref_level - min_level) / ref_level, 0.0, 1.0);
}

}  // namespace

Allocation RobustAllocator::allocate(const AllocationProblem& problem) const {
  return allocate_impl(problem, nullptr);
}

Allocation RobustAllocator::allocate(const AllocationProblem& problem,
                                     SolverWorkspace& workspace) const {
  return allocate_impl(problem, &workspace);
}

Allocation RobustAllocator::allocate_impl(const AllocationProblem& problem,
                                          SolverWorkspace* workspace) const {
  // The budget for this event: the ambient deadline the caller
  // installed, or none.
  const util::Deadline overall = util::ambient_deadline();

  FallbackCounters& counters = fb_counters();
  FallbackStats& fallback = telemetry_->fallback;
  DeadlineStats& deadlines = telemetry_->deadline;
  constexpr auto kPrimaryIdx = static_cast<std::size_t>(FallbackTier::kPrimary);
  bool any_deadline = false;

  auto fail = [&](std::size_t idx, const char* what) {
    counters.failures[idx].add(1);
    ++fallback.failures[idx];
    fallback.last_error = what;
  };
  // An interrupted primary: count it, and drop the network it left
  // holding a partial fill so it is never reused warm.
  auto interrupted = [&] {
    counters.deadline_exceeded[kPrimaryIdx].add(1);
    ++deadlines.deadline_exceeded[kPrimaryIdx];
    any_deadline = true;
    if (workspace != nullptr) workspace->invalidate();
  };
  // A network warmed by another tier must not leak into this tier's solve.
  auto enter = [&](FallbackTier id) {
    if (workspace != nullptr && workspace->serving_tier != static_cast<int>(id))
      workspace->invalidate();
  };
  auto serve = [&](FallbackTier id, Allocation result) {
    const auto sidx = static_cast<std::size_t>(id);
    counters.served[sidx].add(1);
    ++fallback.served[sidx];
    if (fallback.last != id) counters.tier_transitions.add(1);
    fallback.last = id;
    if (any_deadline) {
      counters.deadline_events.add(1);
      ++deadlines.deadline_events;
    }
    if (!overall.unlimited())
      counters.budget_remaining.observe(overall.remaining_ms());
    if (workspace != nullptr) workspace->serving_tier = static_cast<int>(id);
    return result;
  };

  // 1. The primary. Once the overall budget is gone it is skipped outright
  // (a skipped primary never ran, so it is not counted as a failure).
  // Budgeted, it runs under a slice of the remaining budget, installed
  // ambiently so it reaches the solver through the virtual Allocator
  // interface.
  std::optional<Allocation> partial;  // the interrupted primary's fill
  double ref_level = 0.0;             // the highest level it froze
  if (!overall.expired()) {
    const util::Deadline slice =
        overall.unlimited()
            ? overall
            : util::Deadline::earlier(
                  overall, util::Deadline::after_ms(overall.remaining_ms() *
                                                    kTierBudgetShare));
    const util::ScopedDeadline scoped(slice);
    try {
      SolveReport local_report;
      Allocation result;
      if (workspace != nullptr) {
        enter(FallbackTier::kPrimary);
        result = primary_.allocate(problem, *workspace);
      } else {
        result = primary_.allocate_with_report(problem, local_report);
      }
      const SolveReport& report =
          workspace != nullptr ? workspace->report() : local_report;
      // Audit before accepting: a primary that silently returns an
      // infeasible matrix is as broken as one that throws.
      const bool feasible = result.feasible_for(problem, kFeasibilityEps);
      if (report.status == flow::LevelStatus::kDeadlineExceeded) {
        // Interrupted = failed, but the partial fill is worth finishing.
        fail(kPrimaryIdx, "primary interrupted by the time budget");
        interrupted();
        if (feasible) {
          for (double level : report.trace.freeze_level)
            ref_level = std::max(ref_level, level);
          partial = std::move(result);
        }
      } else if (feasible) {
        return serve(FallbackTier::kPrimary, std::move(result));
      } else {
        fail(kPrimaryIdx, "infeasible allocation from the primary");
      }
    } catch (const util::InternalError& e) {
      fail(kPrimaryIdx, e.what());
      // A solver driven into a corner by its deadline can surface as an
      // internal invariant failure; classify it as a deadline when the
      // primary's own slice had expired.
      if (slice.expired()) interrupted();
    }
  }

  // 2. Salvage: the budget interrupted the primary with a feasible partial
  // fill in hand; complete it closed-form instead of discarding the frozen
  // levels.
  if (partial.has_value()) {
    Allocation completed = complete_salvage(problem, *partial);
    if (completed.feasible_for(problem, kFeasibilityEps)) {
      deadlines.worst_salvage_gap =
          std::max(deadlines.worst_salvage_gap,
                   salvage_gap(problem, completed, ref_level));
      return serve(FallbackTier::kSalvage, std::move(completed));
    }
    fail(static_cast<std::size_t>(FallbackTier::kSalvage),
         "salvage completion failed the audit");
  }

  // 3. Per-site max-min: closed-form, never polls, so it runs unbudgeted
  // and always serves.
  enter(FallbackTier::kPerSite);
  Allocation result = workspace != nullptr
                          ? persite_.allocate(problem, *workspace)
                          : persite_.allocate(problem);
  AMF_ASSERT(result.feasible_for(problem, kFeasibilityEps),
             "per-site fallback produced an infeasible allocation");
  return serve(FallbackTier::kPerSite, std::move(result));
}

}  // namespace amf::core
