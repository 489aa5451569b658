// Tests for the placement-stability add-on: aggregates pinned exactly,
// feasibility kept, zero churn when the previous placement already
// realizes the target, optimal-churn behaviour on hand-computable moves,
// and churn reduction inside the simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/amf.hpp"
#include "core/persite.hpp"
#include "core/stability.hpp"
#include "oracle/oracle.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace amf::core {
namespace {

TEST(Stability, ZeroChurnWhenPreviousRealizesTarget) {
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  AmfAllocator amf;
  auto target = amf.allocate(p);
  StabilityAddon stability;
  auto stable = stability.optimize(p, target, target);
  EXPECT_NEAR(StabilityAddon::churn(stable, target), 0.0, 1e-6);
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(stable.aggregate(j), target.aggregate(j), 1e-6);
}

TEST(Stability, PrefersPreviousAmongEquivalentRealizations) {
  // Aggregates (10, 10) over two sites of 10; many matrices realize
  // them. With a previous placement of job 0 on site 0 and job 1 on
  // site 1, the add-on must reproduce it exactly rather than pick an
  // arbitrary max-flow vertex.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10});
  Allocation target(Matrix{{4, 6}, {6, 4}}, "AMF");
  Allocation previous(Matrix{{10, 0}, {0, 10}});
  StabilityAddon stability;
  auto stable = stability.optimize(p, target, previous);
  EXPECT_NEAR(stable.share(0, 0), 10.0, 1e-6);
  EXPECT_NEAR(stable.share(1, 1), 10.0, 1e-6);
  EXPECT_NEAR(StabilityAddon::churn(stable, previous), 0.0, 1e-6);
  EXPECT_EQ(stable.policy(), "AMF+stable");
}

TEST(Stability, MinimalMoveWhenAggregatesShift) {
  // Previous: job 0 held both sites alone. Now job 1 (captive on site 0)
  // arrived; AMF equalizes at (10, 10), whose only realization gives
  // site 0 to job 1 — churn is exactly the forced move (10 released at
  // site 0 + 10 granted to job 1).
  AllocationProblem p({{10, 10}, {10, 0}}, {10, 10});
  AmfAllocator amf;
  auto target = amf.allocate(p);
  ASSERT_NEAR(target.aggregate(0), 10.0, 1e-6);
  ASSERT_NEAR(target.aggregate(1), 10.0, 1e-6);
  Allocation previous(Matrix{{10, 10}, {0, 0}});
  StabilityAddon stability;
  auto stable = stability.optimize(p, target, previous);
  EXPECT_NEAR(stable.share(0, 1), 10.0, 1e-6);  // stays where it was
  EXPECT_NEAR(stable.share(1, 0), 10.0, 1e-6);
  EXPECT_NEAR(StabilityAddon::churn(stable, previous), 20.0, 1e-5);
}

TEST(Stability, FeasibilityAndAggregatesOnRandomInstances) {
  StabilityAddon stability;
  AmfAllocator amf;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto cfg = workload::property_sweep(7700 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto target = amf.allocate(p);
    // A synthetic "previous" allocation: the PSMF split of the same
    // instance (feasible, different shape).
    PerSiteMaxMin psmf;
    auto previous = psmf.allocate(p);
    auto stable = stability.optimize(p, target, previous);
    EXPECT_TRUE(stable.feasible_for(p)) << "seed " << seed;
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(stable.aggregate(j), target.aggregate(j),
                  1e-5 * p.scale())
          << "seed " << seed << " job " << j;
    // Never more churn than the raw target realization itself.
    EXPECT_LE(StabilityAddon::churn(stable, previous),
              StabilityAddon::churn(target, previous) + 1e-6)
        << "seed " << seed;
  }
}

TEST(Stability, ChurnHelperValidatesShapes) {
  Allocation a(Matrix{{1, 2}});
  Allocation b(Matrix{{1, 2}, {3, 4}});
  EXPECT_THROW(StabilityAddon::churn(a, b), util::ContractError);
}

TEST(Stability, RejectsInfeasibleTarget) {
  AllocationProblem p({{5}}, {5});
  Allocation target(Matrix{{20}});
  Allocation previous(Matrix{{0}});
  StabilityAddon stability;
  EXPECT_THROW(stability.optimize(p, target, previous),
               util::ContractError);
}

TEST(Stability, SimulatorChurnDropsWithAddon) {
  auto cfg = workload::paper_default(1.2, 808);
  cfg.jobs = 0;
  workload::Generator gen(cfg);
  auto trace = workload::generate_trace(gen, 0.7, 30);

  AmfAllocator amf;
  sim::SimulatorConfig raw_cfg;
  sim::Simulator raw(amf, raw_cfg);
  auto raw_records = raw.run(trace);

  sim::SimulatorConfig stable_cfg;
  stable_cfg.use_stability_addon = true;
  sim::Simulator stable(amf, stable_cfg);
  auto stable_records = stable.run(trace);

  // Same completions within tolerance is NOT required (splits differ and
  // change event interleavings), but all jobs finish, churn is weakly
  // lower, and the *excess* churn above the unavoidable aggregate-drift
  // lower bound shrinks. (Much of per-event churn is structurally forced
  // — fair shares drift and drained site-parts must vacate — and the
  // deterministic flow solver is itself fairly stable, so the headroom
  // is the excess, not the total.)
  ASSERT_EQ(stable_records.size(), raw_records.size());
  for (const auto& r : stable_records)
    EXPECT_TRUE(std::isfinite(r.completion));
  EXPECT_LE(stable.stats().total_churn, raw.stats().total_churn * 1.001);
  double raw_excess =
      raw.stats().total_churn - raw.stats().aggregate_drift;
  double stable_excess =
      stable.stats().total_churn - stable.stats().aggregate_drift;
  EXPECT_LT(stable_excess, raw_excess);
  EXPECT_GT(stable.stats().total_churn, 0.0);  // arrivals still cost
}


TEST(Stability, BackendsAgreeOnOptimalChurn) {
  // The min-cost flow and the LP oracle solve the same optimization;
  // their churn values must match (the matrices may differ when the
  // optimum is degenerate).
  StabilityAddon mcmf_addon(1e-9);
  AmfAllocator amf;
  PerSiteMaxMin psmf;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto cfg = workload::property_sweep(7900 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto target = amf.allocate(p);
    auto previous = psmf.allocate(p);
    auto via_lp = oracle::min_churn_lp(p, target, previous, 1e-9);
    auto via_mcmf = mcmf_addon.optimize(p, target, previous);
    EXPECT_NEAR(StabilityAddon::churn(via_lp, previous),
                StabilityAddon::churn(via_mcmf, previous),
                1e-4 * p.scale())
        << "seed " << seed;
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(via_mcmf.aggregate(j), target.aggregate(j),
                  1e-5 * p.scale())
          << "seed " << seed << " job " << j;
    EXPECT_TRUE(via_mcmf.feasible_for(p)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace amf::core
