#include "core/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/reference.hpp"
#include "core/workspace.hpp"
#include "flow/transport.hpp"
#include "util/error.hpp"

namespace amf::core {

const char* to_string(FallbackTier tier) {
  switch (tier) {
    case FallbackTier::kPrimary:
      return "primary";
    case FallbackTier::kRelaxedEps:
      return "relaxed-eps";
    case FallbackTier::kBisection:
      return "bisection";
    case FallbackTier::kReferenceLp:
      return "reference-lp";
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

void RobustConfig::validate() const {
  AMF_REQUIRE(std::isfinite(time_budget_ms) && time_budget_ms >= 0.0,
              "time_budget_ms must be finite and >= 0");
}

namespace {

/// Relative tolerance of the post-hoc feasibility audit applied to every
/// tier's output before it is accepted.
constexpr double kFeasibilityEps = 1e-6;
/// Fraction of the *remaining* budget granted to each budgeted tier: the
/// primary gets half the budget, the relaxed retry a quarter, and so on —
/// later tiers are cheaper to interrupt and some budget always survives
/// for salvage.
constexpr double kTierBudgetShare = 0.5;

/// Registry metric name for a tier ('-' is not a legal Prometheus
/// character, tier names use '_' in metrics).
std::string tier_metric(const char* prefix, FallbackTier tier) {
  std::string name = prefix;
  for (const char* p = to_string(tier); *p != '\0'; ++p)
    name.push_back(*p == '-' ? '_' : *p);
  return name;
}

// The single counting mechanism for fallback decisions: registry counters,
// incremented on each wrapper's own shard (so per-instance reads are exact
// even when several wrappers coexist) and merged into the global scrape.
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

RobustAllocator::RobustAllocator(const Allocator& primary, RobustConfig config)
    : primary_(primary),
      config_(config),
      relaxed_(kRelaxedTierEps, flow::LevelMethod::kCutNewton),
      bisection_(kRelaxedTierEps, flow::LevelMethod::kBisection),
      telemetry_(std::make_shared<Telemetry>()) {
  config.validate();
  telemetry_->shard = obs::Registry::global().new_shard();
}

FallbackStats RobustAllocator::fallback_stats() const {
  FallbackCounters& counters = fb_counters();
  FallbackStats stats;
  for (std::size_t i = 0; i < kFallbackTierCount; ++i) {
    stats.served[i] =
        static_cast<long>(counters.served[i].value_in(*telemetry_->shard));
    stats.failures[i] =
        static_cast<long>(counters.failures[i].value_in(*telemetry_->shard));
  }
  stats.last = telemetry_->last;
  stats.last_error = telemetry_->last_error;
  return stats;
}

DeadlineStats RobustAllocator::deadline_stats() const {
  FallbackCounters& counters = fb_counters();
  DeadlineStats stats;
  for (std::size_t i = 0; i < kFallbackTierCount; ++i)
    stats.deadline_exceeded[i] = static_cast<long>(
        counters.deadline_exceeded[i].value_in(*telemetry_->shard));
  stats.deadline_events = telemetry_->deadline_events;
  stats.worst_salvage_gap = telemetry_->worst_salvage_gap;
  return stats;
}

void RobustAllocator::reset_stats() {
  obs::Registry::global().retire(*telemetry_->shard);
  telemetry_->last = FallbackTier::kPrimary;
  telemetry_->last_error.clear();
  telemetry_->deadline_events = 0;
  telemetry_->worst_salvage_gap = 0.0;
}

std::string RobustAllocator::name() const {
  return "Robust(" + primary_.name() + ")";
}

namespace {

/// Tier 4: the LP leximin oracle produces aggregates; the transportation
/// network materializes a per-site split for them. Shares no code with
/// the parametric flow path that tiers 1-3 rely on.
Allocation lp_tier(const AllocationProblem& problem) {
  auto aggregates = lp_max_min_aggregates(problem);
  // LP-tolerance slack can leave the aggregates a hair outside the
  // polytope; shave them until the flow realization accepts.
  for (double shave : {0.0, 1e-9, 1e-7}) {
    std::vector<double> target(aggregates);
    for (double& a : target) a *= (1.0 - shave);
    auto realized = flow::allocation_for_aggregates(
        problem.demands(), problem.capacities(), target);
    if (realized.has_value())
      return Allocation(std::move(*realized), "Robust/reference-lp");
  }
  throw util::InternalError("LP aggregates not realizable as an allocation");
}

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
/// tier's last frozen level: how far the worst served job (among jobs
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
  struct Tier {
    FallbackTier id;
    const Allocator* policy;  // null for the LP tier
  };
  const Tier tiers[] = {
      {FallbackTier::kPrimary, &primary_},
      {FallbackTier::kRelaxedEps, &relaxed_},
      {FallbackTier::kBisection, &bisection_},
      {FallbackTier::kReferenceLp, nullptr},
      {FallbackTier::kPerSite, &persite_},
  };

  // The overall stop for this event: the config budget merged with any
  // ambient deadline installed by the caller, plus whichever cancel flag
  // exists (the config's wins over the ambient one).
  const util::StopToken* ambient = util::ambient_stop();
  util::Deadline overall = config_.time_budget_ms > 0.0
                               ? util::Deadline::after_ms(config_.time_budget_ms)
                               : util::Deadline::never();
  if (ambient != nullptr)
    overall = util::Deadline::earlier(overall, ambient->deadline());
  util::CancelToken cancel = config_.cancel.valid()
                                 ? config_.cancel
                                 : (ambient != nullptr ? ambient->cancel()
                                                       : util::CancelToken{});
  const util::StopToken overall_stop{overall, cancel};
  const bool budgeted = overall_stop.enabled();

  // Best salvage candidate: the first feasible partial fill left behind by
  // a deadline-interrupted AMF tier, with the highest level it froze.
  struct SalvageCandidate {
    bool has = false;
    Allocation partial;
    double ref_level = 0.0;
  } salvage;
  bool any_deadline = false;

  FallbackCounters& counters = fb_counters();
  Telemetry& telemetry = *telemetry_;

  auto count_deadline = [&](std::size_t idx, const char* what) {
    counters.failures[idx].add_to(*telemetry.shard, 1);
    counters.deadline_exceeded[idx].add_to(*telemetry.shard, 1);
    telemetry.last_error = what;
    any_deadline = true;
  };
  auto serve = [&](FallbackTier id, Allocation result) {
    const auto sidx = static_cast<std::size_t>(id);
    counters.served[sidx].add_to(*telemetry.shard, 1);
    if (telemetry.last != id) counters.tier_transitions.add(1);
    telemetry.last = id;
    if (any_deadline) {
      counters.deadline_events.add_to(*telemetry.shard, 1);
      ++telemetry.deadline_events;
    }
    if (!overall.unlimited())
      counters.budget_remaining.observe_in(*telemetry.shard,
                                           overall.remaining_ms());
    if (workspace != nullptr) workspace->serving_tier = static_cast<int>(id);
    return result;
  };

  for (const Tier& tier : tiers) {
    const auto idx = static_cast<std::size_t>(tier.id);
    const bool is_last = tier.id == FallbackTier::kPerSite;

    if (is_last && salvage.has) {
      // The budget ran out with a feasible partial fill in hand: complete
      // it closed-form instead of discarding the frozen levels.
      Allocation completed = complete_salvage(problem, salvage.partial);
      if (completed.feasible_for(problem, kFeasibilityEps)) {
        telemetry.worst_salvage_gap =
            std::max(telemetry.worst_salvage_gap,
                     salvage_gap(problem, completed, salvage.ref_level));
        return serve(FallbackTier::kSalvage, std::move(completed));
      }
      counters.failures[static_cast<std::size_t>(FallbackTier::kSalvage)]
          .add_to(*telemetry.shard, 1);
      telemetry.last_error = "salvage completion failed the audit";
    }

    // Budget gate: once the overall budget is gone, budgeted tiers are
    // skipped outright (the LP tier in particular builds its whole tableau
    // before it first polls) and the chain falls through to salvage or the
    // exempt per-site tier. A skipped tier never ran, so it is not counted
    // as a failure.
    if (!is_last && budgeted && overall_stop.stop_requested()) continue;

    // Budgeted tiers run under a slice of the remaining budget, installed
    // ambiently so it reaches the solvers through the virtual Allocator
    // interface. The per-site tier is exempt: closed-form, never polls.
    std::optional<util::ScopedStop> scoped;
    util::StopToken tier_stop;
    if (!is_last && budgeted) {
      util::Deadline slice = overall;
      if (!overall.unlimited())
        slice = util::Deadline::earlier(
            overall, util::Deadline::after_ms(overall.remaining_ms() *
                                              kTierBudgetShare));
      tier_stop = util::StopToken{slice, cancel};
      scoped.emplace(tier_stop);
    }

    try {
      flow::LevelStatus status = flow::LevelStatus::kConverged;
      const FillTrace* trace = nullptr;
      SolveReport local_report;
      Allocation result;
      if (tier.policy == nullptr) {
        result = lp_tier(problem);
      } else if (workspace != nullptr) {
        // A network warmed under another tier's parameters must not leak
        // into this tier's solve.
        if (workspace->serving_tier != static_cast<int>(tier.id))
          workspace->invalidate();
        result = tier.policy->allocate(problem, *workspace);
        status = workspace->report().status;
        trace = &workspace->report().trace;
      } else if (const auto* amf =
                     dynamic_cast<const AmfAllocator*>(tier.policy)) {
        result = amf->allocate_with_report(problem, local_report);
        status = local_report.status;
        trace = &local_report.trace;
      } else {
        result = tier.policy->allocate(problem);
      }
      if (status == flow::LevelStatus::kDeadlineExceeded) {
        // Interrupted tier = failed tier, but its partial fill may still
        // be worth finishing if the whole budget runs out.
        count_deadline(idx, "tier interrupted by the time budget");
        // The network holds a partial fill; never reuse it warm.
        if (workspace != nullptr) workspace->invalidate();
        if (!salvage.has &&
            result.feasible_for(problem, kFeasibilityEps)) {
          double ref = 0.0;
          if (trace != nullptr)
            for (double level : trace->freeze_level) ref = std::max(ref, level);
          salvage = {true, std::move(result), ref};
        }
        continue;
      }
      // Audit before accepting: a tier that silently returns an
      // infeasible matrix is as broken as one that throws.
      if (!result.feasible_for(problem, kFeasibilityEps)) {
        AMF_ASSERT(!is_last, "per-site fallback produced an infeasible "
                             "allocation");
        counters.failures[idx].add_to(*telemetry.shard, 1);
        telemetry.last_error = "infeasible allocation from tier";
        continue;
      }
      return serve(tier.id, std::move(result));
    } catch (const util::DeadlineExceeded& e) {
      if (is_last) throw;  // unreachable: the per-site tier never polls
      count_deadline(idx, e.what());
      if (workspace != nullptr) workspace->invalidate();
    } catch (const util::InternalError& e) {
      if (is_last) throw;  // nothing below the per-site tier
      counters.failures[idx].add_to(*telemetry.shard, 1);
      telemetry.last_error = e.what();
      // A solver driven into a corner by its stop token can surface as an
      // internal invariant failure; classify it as a deadline when the
      // tier's own stop had fired.
      if (budgeted && tier_stop.stop_requested()) {
        counters.deadline_exceeded[idx].add_to(*telemetry.shard, 1);
        any_deadline = true;
        if (workspace != nullptr) workspace->invalidate();
      }
    }
  }
  // Unreachable: the per-site tier either serves or rethrows. A plain
  // throw (not AMF_ASSERT) so -Wreturn-type sees the function never
  // falls through even at -O0.
  throw util::InternalError("fallback chain exhausted");
}

}  // namespace amf::core
