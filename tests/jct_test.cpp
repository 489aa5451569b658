// Tests for the completion-time model and the JCT add-on: exact
// completion times, slowdowns, the add-on's contract (aggregates
// preserved exactly, feasibility kept, completion times never worse) and
// its behaviour on instances with and without structural eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/amf.hpp"
#include "core/jct.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

TEST(CompletionTimes, ExactValues) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{6, 3}});
  Allocation a(Matrix{{2, 3}});
  auto jct = completion_times(p, a);
  EXPECT_DOUBLE_EQ(jct[0], 3.0);  // max(6/2, 3/3)
}

TEST(CompletionTimes, InfiniteWhenWorkedSiteUnallocated) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{6, 3}});
  Allocation a(Matrix{{5, 0}});
  auto jct = completion_times(p, a);
  EXPECT_TRUE(std::isinf(jct[0]));
}

TEST(CompletionTimes, ZeroWorkIsZeroTime) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{0, 0}});
  Allocation a(Matrix{{5, 0}});
  auto jct = completion_times(p, a);
  EXPECT_DOUBLE_EQ(jct[0], 0.0);
}

TEST(CompletionTimes, RequiresWorkloads) {
  AllocationProblem p({{10}}, {10});
  Allocation a(Matrix{{5}});
  EXPECT_THROW(completion_times(p, a), util::ContractError);
}

TEST(Slowdowns, ProportionalSplitIsOne) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{8, 2}});
  Allocation a(Matrix{{8, 2}});  // exactly proportional
  auto sd = slowdowns(p, a);
  EXPECT_NEAR(sd[0], 1.0, 1e-12);
}

TEST(Slowdowns, SkewedSplitAboveOne) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{8, 2}});
  Allocation a(Matrix{{5, 5}});  // same aggregate, bad split
  auto sd = slowdowns(p, a);
  // JCT = 8/5 = 1.6 vs ideal 10/10 = 1.
  EXPECT_NEAR(sd[0], 1.6, 1e-12);
}

TEST(JctAddon, PerfectSplitWhenUncontended) {
  // Two jobs with complementary workloads can both hit slowdown 1.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{8, 2}, {2, 8}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto sd = slowdowns(p, opt);
  EXPECT_NEAR(sd[0], 1.0, 1e-5);
  EXPECT_NEAR(sd[1], 1.0, 1e-5);
  EXPECT_NEAR(opt.share(0, 0), 8.0, 1e-4);
  EXPECT_NEAR(opt.share(1, 1), 8.0, 1e-4);
  EXPECT_EQ(opt.policy(), "AMF+JCT");
}

TEST(JctAddon, PreservesAggregatesExactly) {
  auto cfg = workload::paper_default(1.2, 31);
  cfg.jobs = 40;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale())
        << "job " << j;
  EXPECT_TRUE(opt.feasible_for(p));
}

TEST(JctAddon, NeverWorseThanProportionalIdealBound) {
  // Every job's JCT must be >= its proportional ideal W/A; the add-on's
  // guaranteed-fraction construction must respect that bound and report
  // finite times for jobs with positive guaranteed fractions.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{5, 5}, {9, 1}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto jct = completion_times(p, opt);
  for (int j = 0; j < 2; ++j) {
    double ideal = p.total_work(j) / opt.aggregate(j);
    EXPECT_GE(jct[static_cast<std::size_t>(j)], ideal - 1e-9);
  }
}

class JctAddonSweep : public ::testing::TestWithParam<int> {};

TEST_P(JctAddonSweep, ContractHoldsOnRandomInstances) {
  auto cfg = workload::property_sweep(static_cast<std::uint64_t>(GetParam()));
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);

  // Aggregates preserved, feasibility kept.
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale());
  EXPECT_TRUE(opt.feasible_for(p));

  // Mean finite JCT no worse than the raw flow split's.
  auto before = jct_report(p, base);
  auto after = jct_report(p, opt);
  EXPECT_LE(after.unbounded, before.unbounded);
  if (before.unbounded == 0 && after.unbounded == 0 && before.mean > 0.0) {
    EXPECT_LE(after.mean, before.mean * (1.0 + 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JctAddonSweep, ::testing::Range(0, 25));

TEST(JctAddon, WorksOnPsmfAllocationsToo) {
  // The add-on is policy-agnostic: it only needs aggregates.
  auto cfg = workload::property_sweep(77);
  workload::Generator gen(cfg);
  auto p = gen.generate();
  PerSiteMaxMin psmf;
  auto base = psmf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale());
  EXPECT_TRUE(opt.feasible_for(p));
  EXPECT_EQ(opt.policy(), "PSMF+JCT");
}

TEST(JctAddon, HandlesZeroWorkJobs) {
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{0, 0}, {5, 5}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  EXPECT_NEAR(opt.aggregate(0), base.aggregate(0), 1e-6 * p.scale());
  auto jct = completion_times(p, opt);
  EXPECT_DOUBLE_EQ(jct[0], 0.0);
  EXPECT_TRUE(std::isfinite(jct[1]));
}

TEST(JctAddon, ZeroJobs) {
  AllocationProblem p(Matrix{}, {5.0});
  JctAddon addon;
  auto opt = addon.optimize(
      AllocationProblem(Matrix{}, {5.0}, Matrix{}), Allocation(Matrix{}));
  EXPECT_EQ(opt.jobs(), 0);
  (void)p;
}

TEST(JctAddon, ImprovesMeanSlowdownOverRawFlowSplit) {
  // On a moderately loaded instance with capped demands, the raw max-flow
  // split should be clearly beatable.
  auto cfg = workload::property_sweep(5);
  cfg.jobs = 10;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto before = jct_report(p, base);
  auto after = jct_report(p, opt);
  // At minimum: no new unbounded jobs and no regression.
  EXPECT_LE(after.unbounded, before.unbounded);
}

TEST(JctReport, CountsUnboundedSeparately) {
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{5, 5}, {5, 5}});
  Allocation a(Matrix{{5, 5}, {5, 0}});  // job 1 starved at site 1
  auto r = jct_report(p, a);
  EXPECT_EQ(r.unbounded, 1);
  EXPECT_DOUBLE_EQ(r.mean, 1.0);  // only job 0's finite JCT
}

}  // namespace
}  // namespace amf::core
