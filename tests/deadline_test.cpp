// Tests for the deadline subsystem and the anytime allocation pipeline
// built on it: the util primitives, cooperative interruption of the
// fill and the level solve, the RobustAllocator budget split + salvage
// path, workspace hygiene after an interrupted tier, and randomized
// chaos runs firing tight budgets at fault-heavy traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "flow/transport.hpp"
#include "core/robust.hpp"
#include "core/workspace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "workload/faults.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace amf {
namespace {

using core::AllocationProblem;
using core::FallbackTier;
using core::Matrix;

// ---------------------------------------------------------------------------
// util primitives

TEST(Deadline, NeverIsUnlimited) {
  util::Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_TRUE(util::Deadline::never().unlimited());
}

TEST(Deadline, AfterZeroExpiresImmediately) {
  auto d = util::Deadline::after_ms(0.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);
}

TEST(Deadline, RejectsNegativeAndNonFinite) {
  EXPECT_THROW(util::Deadline::after_ms(-1.0), util::ContractError);
  EXPECT_THROW(util::Deadline::after_ms(
                   std::numeric_limits<double>::quiet_NaN()),
               util::ContractError);
  EXPECT_THROW(util::Deadline::after_ms(
                   std::numeric_limits<double>::infinity()),
               util::ContractError);
}

TEST(Deadline, SimulatorRejectsBadEventBudgets) {
  // The one budget setting is checked where it is set: the simulator
  // refuses a negative or non-finite event budget at construction.
  core::AmfAllocator amf;
  for (double bad : {-5.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    sim::SimulatorConfig cfg;
    cfg.event_budget_ms = bad;
    EXPECT_THROW((sim::Simulator(amf, cfg)), util::ContractError) << bad;
  }
}

TEST(Deadline, EarlierPicksTheTighterOne) {
  auto never = util::Deadline::never();
  auto soon = util::Deadline::after_ms(0.0);
  auto late = util::Deadline::after_ms(1e7);
  EXPECT_TRUE(util::Deadline::earlier(never, never).unlimited());
  EXPECT_TRUE(util::Deadline::earlier(never, soon).expired());
  EXPECT_TRUE(util::Deadline::earlier(soon, never).expired());
  EXPECT_TRUE(util::Deadline::earlier(soon, late).expired());
  EXPECT_FALSE(util::Deadline::earlier(late, late).expired());
}

TEST(Deadline, HugeOffsetsSaturateInsteadOfOverflowing) {
  using Clock = std::chrono::steady_clock;
  const auto now = Clock::now();
  // Past ~9.2e12 ms a nanosecond clock's count overflows; saturation
  // keeps the point in the far future instead of wrapping into the past.
  for (double ms : {1e13, 1e300, std::numeric_limits<double>::infinity()})
    EXPECT_EQ(util::saturating_after_ms(now, ms), Clock::time_point::max())
        << ms;
  EXPECT_GT(util::saturating_after_ms(now, 9e12), now);
  EXPECT_LT(util::saturating_after_ms(now, 9e12), Clock::time_point::max());
  // Ordinary offsets convert exactly as duration_cast does.
  EXPECT_EQ(util::saturating_after_ms(now, 2.5),
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(2.5)));
  EXPECT_FALSE(util::Deadline::after_ms(1e13).expired());
  EXPECT_FALSE(util::Deadline::after_ms(1e300).expired());
}

TEST(ScopedDeadline, InstallsAndRestoresTheAmbientDeadline) {
  EXPECT_TRUE(util::ambient_deadline().unlimited());
  {
    util::ScopedDeadline outer_scope(util::Deadline::after_ms(1e6));
    EXPECT_FALSE(util::ambient_deadline().unlimited());
    EXPECT_FALSE(util::ambient_deadline().expired());
    {
      util::ScopedDeadline inner_scope(util::Deadline::after_ms(0.0));
      EXPECT_TRUE(util::ambient_deadline().expired());
    }
    EXPECT_FALSE(util::ambient_deadline().unlimited());
    EXPECT_FALSE(util::ambient_deadline().expired());
  }
  EXPECT_TRUE(util::ambient_deadline().unlimited());
}

// ---------------------------------------------------------------------------
// solver substrate

AllocationProblem medium_problem() {
  const int n = 12, m = 5;
  Matrix demands(static_cast<std::size_t>(n),
                 std::vector<double>(static_cast<std::size_t>(m), 0.0));
  Matrix workloads = demands;
  std::vector<double> capacities(static_cast<std::size_t>(m), 20.0);
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s) {
      demands[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
          3.0 + ((j * 7 + s * 3) % 5);
      workloads[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
          demands[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] *
          2.0;
    }
  return AllocationProblem(std::move(demands), std::move(capacities),
                           std::move(workloads));
}

TEST(AnytimeSolvers, ExpiredTokenYieldsFeasiblePartialFill) {
  auto problem = medium_problem();
  const util::ScopedDeadline expired(util::Deadline::after_ms(0.0));
  core::SolveReport report;
  std::vector<double> zeros(static_cast<std::size_t>(problem.jobs()), 0.0);
  auto alloc = core::progressive_fill(problem, zeros, "AMF", 1e-9,
                                      flow::LevelMethod::kCutNewton, &report);
  EXPECT_EQ(report.status, flow::LevelStatus::kDeadlineExceeded);
  EXPECT_TRUE(alloc.feasible_for(problem));
}

TEST(AnytimeSolvers, CriticalLevelReturnsBestProvenFeasibleLevel) {
  auto problem = medium_problem();
  flow::TransportNetwork net(problem.demands(), problem.capacities());
  std::vector<flow::ParametricSource> sources(
      static_cast<std::size_t>(problem.jobs()));
  for (auto& src : sources) src = {0.0, 1.0};
  const util::ScopedDeadline expired(util::Deadline::after_ms(0.0));
  auto res = flow::solve_critical_level(net, sources, 0.0, 100.0, 1e-9);
  EXPECT_EQ(res.status, flow::LevelStatus::kDeadlineExceeded);
  EXPECT_GE(res.level, 0.0);  // at worst the known-feasible lower bound
}

// ---------------------------------------------------------------------------
// RobustAllocator deadline handling

/// A primary that installs an already-expired ambient deadline around a
/// real progressive-filling solve (AMF or E-AMF) on both entry points: the
/// solve observes it immediately and reports kDeadlineExceeded with a
/// feasible partial fill — a deterministic tier interruption, whatever
/// the host's speed.
template <typename Inner>
class ExpiredDeadlinePrimary final : public core::Allocator {
 public:
  core::Allocation allocate(const AllocationProblem& p) const override {
    core::SolveReport report;
    return allocate_with_report(p, report);
  }
  core::Allocation allocate_with_report(
      const AllocationProblem& p, core::SolveReport& report) const override {
    const util::ScopedDeadline expired(util::Deadline::after_ms(0.0));
    return inner_.allocate_with_report(p, report);
  }
  core::Allocation allocate(const AllocationProblem& p,
                            core::SolverWorkspace& ws) const override {
    const util::ScopedDeadline expired(util::Deadline::after_ms(0.0));
    return inner_.allocate(p, ws);
  }
  std::string name() const override { return "ExpiredDeadline"; }

 private:
  Inner inner_;
};

using ExpiredAmfPrimary = ExpiredDeadlinePrimary<core::AmfAllocator>;

TEST(RobustDeadline, InterruptedPrimaryIsSalvagedAndCounted) {
  auto problem = medium_problem();
  ExpiredAmfPrimary primary;
  core::RobustAllocator robust(primary);
  core::SolverWorkspace ws;

  auto alloc = robust.allocate(problem, ws);
  EXPECT_TRUE(alloc.feasible_for(problem));
  EXPECT_EQ(alloc.policy(), "Robust/salvage");

  const auto fb = robust.fallback_stats();
  EXPECT_EQ(fb.failures[static_cast<int>(FallbackTier::kPrimary)], 1);
  EXPECT_EQ(fb.served[static_cast<int>(FallbackTier::kSalvage)], 1);
  EXPECT_EQ(fb.last, FallbackTier::kSalvage);

  const auto ds = robust.deadline_stats();
  EXPECT_EQ(ds.deadline_exceeded[static_cast<int>(FallbackTier::kPrimary)],
            1);
  EXPECT_EQ(ds.deadline_events, 1);
  // Nothing was frozen before the interrupt, so salvage lost nothing.
  EXPECT_EQ(ds.worst_salvage_gap, 0.0);

  // The deadline counters must be visible to operators.
  auto prom = obs::to_prometheus_text(obs::Registry::global().snapshot());
  EXPECT_NE(prom.find("amf_core_deadline_exceeded_primary"),
            std::string::npos);
  EXPECT_NE(prom.find("amf_core_deadline_events"), std::string::npos);
}

TEST(RobustDeadline, InterruptedEnhancedAmfIsSalvagedOnBothEntryPoints) {
  // E-AMF fills under equal-split floors through the same progressive
  // fill as AMF; an interrupted E-AMF fill must be reported as such on
  // the stateless and the workspace entry point, not served as the
  // primary's answer.
  auto problem = medium_problem();
  ExpiredDeadlinePrimary<core::EnhancedAmfAllocator> primary;
  for (const bool with_workspace : {false, true}) {
    SCOPED_TRACE(with_workspace ? "workspace" : "stateless");
    core::RobustAllocator robust(primary);
    core::SolverWorkspace ws;
    auto alloc = with_workspace ? robust.allocate(problem, ws)
                                : robust.allocate(problem);
    EXPECT_TRUE(alloc.feasible_for(problem));
    EXPECT_EQ(alloc.policy(), "Robust/salvage");

    const auto fb = robust.fallback_stats();
    EXPECT_EQ(fb.served[static_cast<int>(FallbackTier::kSalvage)], 1);
    EXPECT_EQ(fb.served[static_cast<int>(FallbackTier::kPrimary)], 0);
    EXPECT_EQ(fb.failures[static_cast<int>(FallbackTier::kPrimary)], 1);
    EXPECT_EQ(fb.last, FallbackTier::kSalvage);
    const auto ds = robust.deadline_stats();
    EXPECT_EQ(ds.deadline_exceeded[static_cast<int>(FallbackTier::kPrimary)],
              1);
    EXPECT_EQ(ds.deadline_events, 1);
  }
}

TEST(RobustDeadline, CancelledBudgetSkipsStraightToPerSite) {
  // The budget is spent before the chain starts (an expired ambient
  // deadline): every budgeted tier is skipped (never attempted, so no
  // failures counted) and the exempt per-site tier serves.
  auto problem = medium_problem();
  core::AmfAllocator amf;
  core::RobustAllocator robust(amf);

  const util::ScopedDeadline expired(util::Deadline::after_ms(0.0));
  auto alloc = robust.allocate(problem);
  EXPECT_TRUE(alloc.feasible_for(problem));
  const auto fb = robust.fallback_stats();
  EXPECT_EQ(fb.served[static_cast<int>(FallbackTier::kPerSite)], 1);
  for (int i = 0; i < core::kFallbackTierCount; ++i)
    EXPECT_EQ(fb.failures[static_cast<std::size_t>(i)], 0);
}

TEST(RobustDeadline, WorkspaceIsInvalidatedAfterInterruptedTier) {
  // Event 1: the primary is interrupted, salvage serves — the workspace
  // network holds a partial fill and must not be reused warm. Event 2
  // runs unbudgeted: the primary must serve from a re-primed workspace
  // and reproduce the stateless solve exactly.
  auto problem = medium_problem();
  ExpiredAmfPrimary primary;
  core::RobustAllocator robust(primary);
  core::SolverWorkspace ws;

  auto first = robust.allocate(problem, ws);
  EXPECT_EQ(ws.serving_tier, static_cast<int>(FallbackTier::kSalvage));

  // The second event goes to a fresh wrapper around a healthy primary,
  // sharing the same workspace — exactly the serving-tier handoff the
  // invalidation contract covers.
  core::AmfAllocator amf;
  core::RobustAllocator healthy(amf);
  auto second = healthy.allocate(problem, ws);
  EXPECT_EQ(ws.serving_tier, static_cast<int>(FallbackTier::kPrimary));
  EXPECT_TRUE(second.feasible_for(problem));

  auto reference = amf.allocate(problem);
  ASSERT_EQ(second.jobs(), reference.jobs());
  for (int j = 0; j < second.jobs(); ++j)
    EXPECT_NEAR(second.aggregate(j), reference.aggregate(j), 1e-7)
        << "job " << j;
}

TEST(RobustDeadline, ContractErrorStillPropagates) {
  // Caller bugs must not be absorbed by the budget machinery: a primary
  // that throws ContractError aborts the chain even when budgeted.
  class ContractThrowing final : public core::Allocator {
   public:
    core::Allocation allocate(const AllocationProblem&) const override {
      throw util::ContractError("caller handed us garbage");
    }
    std::string name() const override { return "ContractThrowing"; }
  };
  auto problem = medium_problem();
  ContractThrowing primary;
  core::RobustAllocator robust(primary);
  // Budgeted, but nowhere near expiring.
  const util::ScopedDeadline budget(util::Deadline::after_ms(1e6));
  EXPECT_THROW(robust.allocate(problem), util::ContractError);
}

// ---------------------------------------------------------------------------
// chaos: tight budgets on fault-heavy traces

/// Wraps the robust chain and audits every served allocation against the
/// problem it was computed for — the chaos tests' per-event invariant.
class AuditingAllocator final : public core::Allocator {
 public:
  explicit AuditingAllocator(const core::Allocator& inner) : inner_(inner) {}
  core::Allocation allocate(const AllocationProblem& p) const override {
    return audit(p, inner_.allocate(p));
  }
  core::Allocation allocate(const AllocationProblem& p,
                            core::SolverWorkspace& ws) const override {
    return audit(p, inner_.allocate(p, ws));
  }
  std::string name() const override { return inner_.name(); }
  int audited = 0;

 private:
  core::Allocation audit(const AllocationProblem& p,
                         core::Allocation alloc) const {
    // Feasibility covers the conservation invariant: per-cell demand
    // caps, per-site capacity sums, and aggregates consistent with the
    // share matrix (the Allocation constructor computes them from it).
    EXPECT_TRUE(alloc.feasible_for(p, 1e-6));
    double total = 0.0, capacity = 0.0;
    for (int j = 0; j < p.jobs(); ++j) total += alloc.aggregate(j);
    for (int s = 0; s < p.sites(); ++s) capacity += p.capacity(s);
    EXPECT_LE(total, capacity * (1.0 + 1e-6) + 1e-9);
    ++const_cast<AuditingAllocator*>(this)->audited;
    return alloc;
  }

  const core::Allocator& inner_;
};

workload::Trace chaos_trace(std::uint64_t seed, int jobs) {
  auto cfg = workload::paper_default(1.2, seed);
  cfg.sites = 8;
  cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, 8);
  workload::Generator generator(cfg);
  auto trace = workload::generate_trace(generator, 0.9, jobs);
  workload::FaultInjectorConfig fault_cfg;
  fault_cfg.mtbf = 4.0;  // fault-heavy: failures every few time units
  fault_cfg.mttr = 1.5;
  fault_cfg.seed = seed ^ 0xfa017;
  workload::FaultInjector injector(fault_cfg);
  injector.inject(trace);
  return trace;
}

void run_chaos(double budget_ms, std::uint64_t seed) {
  auto trace = chaos_trace(seed, 60);
  core::AmfAllocator amf;
  core::RobustAllocator robust(amf);
  AuditingAllocator audited(robust);
  sim::SimulatorConfig sim_cfg;
  sim_cfg.event_budget_ms = budget_ms;
  sim::Simulator sim(audited, sim_cfg);

  auto records = sim.run(trace);
  ASSERT_EQ(records.size(), trace.jobs.size());
  for (const auto& r : records) {
    EXPECT_GE(r.completion, r.arrival);  // every job actually finished
  }
  EXPECT_EQ(audited.audited, sim.stats().events);
  EXPECT_GT(audited.audited, 0);

  // Deadline telemetry must be wired end to end: any interrupted tier
  // shows up both in the per-instance stats and the Prometheus export.
  const auto ds = robust.deadline_stats();
  long interrupted = 0;
  for (long v : ds.deadline_exceeded) interrupted += v;
  if (interrupted > 0) {
    EXPECT_GT(ds.deadline_events, 0);
    auto prom = obs::to_prometheus_text(obs::Registry::global().snapshot());
    EXPECT_NE(prom.find("amf_core_deadline_exceeded_"), std::string::npos);
  }
  EXPECT_GE(ds.worst_salvage_gap, 0.0);
  EXPECT_LE(ds.worst_salvage_gap, 1.0);
}

TEST(ChaosDeadline, TightMillisecondBudget) { run_chaos(1.0, 101); }
TEST(ChaosDeadline, BrutalSubMillisecondBudget) { run_chaos(0.2, 202); }
TEST(ChaosDeadline, SeedSweepStaysFeasible) {
  for (std::uint64_t seed : {7u, 19u, 23u}) run_chaos(0.5, seed);
}

TEST(ChaosDeadline, ExpiredPrimaryIsSalvagedAtEveryEvent) {
  // The timing-free twin of the runs above: the primary's deadline has
  // always expired, so every event of a fault-heavy trace interrupts it
  // inside the simulator, and the chain must serve every one from
  // salvage, feasibly, and count it as a deadline event.
  auto trace = chaos_trace(47, 60);
  ExpiredAmfPrimary primary;
  core::RobustAllocator robust(primary);
  AuditingAllocator audited(robust);
  sim::Simulator sim(audited);

  auto records = sim.run(trace);
  ASSERT_EQ(records.size(), trace.jobs.size());
  const long events = sim.stats().events;
  ASSERT_GT(events, 0);
  EXPECT_EQ(audited.audited, events);
  const auto fb = robust.fallback_stats();
  EXPECT_EQ(fb.served[static_cast<int>(FallbackTier::kSalvage)], events);
  EXPECT_EQ(fb.degraded_calls(), events);
  EXPECT_EQ(robust.deadline_stats().deadline_events, events);
  for (const auto& ev : sim.event_series())
    EXPECT_EQ(ev.tier, static_cast<int>(FallbackTier::kSalvage));
}

TEST(ChaosDeadline, GenerousBudgetServedWithinTwiceTheBudget) {
  // Timing assertion at a budget generous enough to hold under
  // sanitizer slowdowns: every event must be served within 2x the
  // budget (the 2x slack covers the exempt salvage / per-site finish).
  const double budget_ms = 50.0;
  auto trace = chaos_trace(31, 50);
  core::AmfAllocator amf;
  core::RobustAllocator robust(amf);
  sim::SimulatorConfig sim_cfg;
  sim_cfg.event_budget_ms = budget_ms;
  sim::Simulator sim(robust, sim_cfg);
  auto records = sim.run(trace);
  ASSERT_EQ(records.size(), trace.jobs.size());
  double worst = 0.0;
  for (const auto& ev : sim.event_series())
    worst = std::max(worst, ev.alloc_ms);
  EXPECT_LE(worst, 2.0 * budget_ms);
  EXPECT_EQ(sim.stats().events_over_budget,
            static_cast<int>(std::count_if(
                sim.event_series().begin(), sim.event_series().end(),
                [&](const sim::EventSample& ev) {
                  return ev.alloc_ms > budget_ms;
                })));
}

}  // namespace
}  // namespace amf
