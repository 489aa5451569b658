// Tests for the AMF allocator (and the PSMF baseline it is compared
// against): exact aggregates on hand-analyzed instances, the definitional
// max-min fixed-point check on random instances, lexicographic dominance
// over brute-force integer search and over the baseline, weighted
// fairness, determinism, scale invariance, and degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/jct.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "core/properties.hpp"
#include "core/reference.hpp"
#include "core/stability.hpp"
#include "oracle/oracle.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

const AmfAllocator kAmf;
const PerSiteMaxMin kPsmf;

TEST(Amf, SymmetricTriangle) {
  // Two sites of 10; job 1 bridges both. Everyone can reach 20/3.
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.aggregate(j), 20.0 / 3.0, 1e-6);
  EXPECT_TRUE(a.feasible_for(p));
  EXPECT_EQ(a.policy(), "AMF");
}

TEST(Amf, HotSitePlusPrivateSite) {
  // Jobs 0, 1 captive on site 0; job 2 owns site 1.
  AllocationProblem p({{10, 0}, {10, 0}, {0, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 5.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 5.0, 1e-6);
  EXPECT_NEAR(a.aggregate(2), 10.0, 1e-6);
}

TEST(Amf, FlexibleJobYieldsHotSiteToCaptive) {
  // Job 0 captive on the hot site; job 1 can use either. AMF should let
  // job 1 take the cold site so both reach 10.
  AllocationProblem p({{10, 0}, {10, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 10.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 10.0, 1e-6);
  // Job 1's allocation must live (almost) entirely on site 1.
  EXPECT_NEAR(a.share(1, 1), 10.0, 1e-5);
}

TEST(Amf, DemandCapFreezesJobEarly) {
  // Job 0 can only ever use 2 units; the leftover goes to job 1.
  AllocationProblem p({{2, 0}, {10, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 2.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 18.0, 1e-6);
}

TEST(Amf, ChainOfOverlappingJobs) {
  // Three sites, jobs overlapping pairwise: a classic case where levels
  // cascade. Sites of 6 each; job 0 on {0}, job 1 on {0,1}, job 2 on
  // {1,2}. Progressive filling: all rise to 6 together? Total capacity 18,
  // all three can reach 6 (job 0 takes site 0 = 6 - x...). Verify via the
  // definitional oracle rather than hand arithmetic.
  AllocationProblem p({{6, 0, 0}, {6, 6, 0}, {0, 6, 6}}, {6, 6, 6});
  auto a = kAmf.allocate(p);
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
  EXPECT_TRUE(a.feasible_for(p));
}

TEST(Amf, SingleJobGetsItsCeiling) {
  AllocationProblem p({{4, 7}}, {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 11.0, 1e-6);
}

TEST(Amf, ZeroJobs) {
  AllocationProblem p(Matrix{}, {10});
  auto a = kAmf.allocate(p);
  EXPECT_EQ(a.jobs(), 0);
}

TEST(Amf, ZeroDemandJobFrozenAtZero) {
  AllocationProblem p({{0, 0}, {10, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_DOUBLE_EQ(a.aggregate(0), 0.0);
  EXPECT_NEAR(a.aggregate(1), 20.0, 1e-6);
}

TEST(Amf, ZeroCapacitySiteIgnored) {
  AllocationProblem p({{5, 5}, {5, 5}}, {0, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 5.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 5.0, 1e-6);
  EXPECT_NEAR(a.share(0, 0), 0.0, 1e-9);
}

TEST(Amf, WeightedAggregatesProportional) {
  // One shared site: weights 3:1 split the capacity 12 as 9:3.
  AllocationProblem p({{12}, {12}}, {12}, {}, {3.0, 1.0});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 9.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 3.0, 1e-6);
}

TEST(Amf, WeightedAcrossSites) {
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10}, {},
                      {2.0, 1.0, 1.0});
  auto a = kAmf.allocate(p);
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
  // Normalized aggregates of the two flexible-enough jobs should match.
  EXPECT_NEAR(a.aggregate(0) / 2.0, a.aggregate(1) / 1.0, 1e-5);
}

TEST(Amf, WeightScalingInvariance) {
  AllocationProblem p1({{10, 0}, {10, 10}, {0, 10}}, {10, 10}, {},
                       {1.0, 2.0, 3.0});
  AllocationProblem p2({{10, 0}, {10, 10}, {0, 10}}, {10, 10}, {},
                       {10.0, 20.0, 30.0});
  auto a1 = kAmf.allocate(p1);
  auto a2 = kAmf.allocate(p2);
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(a1.aggregate(j), a2.aggregate(j), 1e-6);
}

TEST(Amf, ScaleInvariance) {
  Matrix d{{7, 0}, {7, 5}, {0, 5}};
  AllocationProblem small(d, {7, 5});
  Matrix big_d = d;
  for (auto& row : big_d)
    for (auto& v : row) v *= 1000.0;
  AllocationProblem big(big_d, {7000, 5000});
  auto a_small = kAmf.allocate(small);
  auto a_big = kAmf.allocate(big);
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(a_big.aggregate(j), 1000.0 * a_small.aggregate(j), 1e-3);
}

TEST(Amf, Deterministic) {
  auto cfg = workload::paper_default(1.2, 99);
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto a1 = kAmf.allocate(p);
  auto a2 = kAmf.allocate(p);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_DOUBLE_EQ(a1.aggregate(j), a2.aggregate(j));
}

TEST(Amf, MatchesBruteForceOnIntegralInstance) {
  // Crafted so the continuous optimum is integral: caps 4 and 2, demands
  // as below give aggregates (2, 3, 1).
  AllocationProblem p({{2, 0}, {4, 1}, {0, 1}}, {4, 2});
  auto a = kAmf.allocate(p);
  auto bf = oracle::brute_force_max_min_aggregates(p);
  auto sorted_amf = a.aggregates();
  auto sorted_bf = bf;
  std::sort(sorted_amf.begin(), sorted_amf.end());
  std::sort(sorted_bf.begin(), sorted_bf.end());
  for (std::size_t i = 0; i < sorted_bf.size(); ++i)
    EXPECT_NEAR(sorted_amf[i], sorted_bf[i], 1e-6) << "rank " << i;
}

TEST(Psmf, IndependentPerSiteWaterFilling) {
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  auto a = kPsmf.allocate(p);
  // Site 0 split between jobs 0 and 1; site 1 between jobs 1 and 2.
  EXPECT_NEAR(a.share(0, 0), 5.0, 1e-12);
  EXPECT_NEAR(a.share(1, 0), 5.0, 1e-12);
  EXPECT_NEAR(a.share(1, 1), 5.0, 1e-12);
  EXPECT_NEAR(a.share(2, 1), 5.0, 1e-12);
  // Job 1 double-dips: the aggregate imbalance AMF removes.
  EXPECT_NEAR(a.aggregate(1), 10.0, 1e-12);
  EXPECT_EQ(a.policy(), "PSMF");
}

TEST(Psmf, FeasibleAndParetoPerSite) {
  auto cfg = workload::property_sweep(3);
  workload::Generator gen(cfg);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.generate();
    auto a = kPsmf.allocate(p);
    EXPECT_TRUE(a.feasible_for(p));
    // Per-site Pareto: site fully used or every demand met.
    for (int s = 0; s < p.sites(); ++s) {
      double used = a.site_usage(s);
      bool all_met = true;
      for (int j = 0; j < p.jobs(); ++j)
        all_met &= (a.share(j, s) >= p.demand(j, s) - 1e-9);
      EXPECT_TRUE(all_met || used >= p.capacity(s) - 1e-6)
          << "site " << s << " instance " << i;
    }
  }
}

struct RandomCase {
  std::uint64_t seed;
  workload::DemandModel model;
};

class AmfRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AmfRandomTest, IsMaxMinFairAndDominatesBaseline) {
  auto [seed, model_idx] = GetParam();
  auto cfg = workload::property_sweep(static_cast<std::uint64_t>(seed));
  cfg.demand_model = model_idx == 0 ? workload::DemandModel::kUncapped
                                    : workload::DemandModel::kProportionalToWork;
  workload::Generator gen(cfg);
  auto p = gen.generate();

  auto a = kAmf.allocate(p);
  EXPECT_TRUE(a.feasible_for(p));
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()))
      << "seed " << seed << " model " << model_idx;
  EXPECT_TRUE(is_pareto_efficient(p, a));

  // The unique lex max-min vector weakly dominates any feasible
  // allocation's aggregates — in particular the baseline's.
  auto base = kPsmf.allocate(p);
  EXPECT_GE(lexicographic_compare(a.normalized_aggregates(p),
                                  base.normalized_aggregates(p), 1e-6),
            0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AmfRandomTest,
                         ::testing::Combine(::testing::Range(0, 25),
                                            ::testing::Values(0, 1)));

class AmfBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(AmfBruteForceTest, DominatesIntegerGrid) {
  util::Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  // Tiny integer instances: 3 jobs, 2 sites, small caps.
  const int n = 3, m = 2;
  Matrix d(n, std::vector<double>(m, 0.0));
  std::vector<double> caps(m);
  for (auto& c : caps) c = static_cast<double>(rng.uniform_int(1, 4));
  for (auto& row : d)
    for (auto& v : row) v = static_cast<double>(rng.uniform_int(0, 4));
  AllocationProblem p(d, caps);
  auto a = kAmf.allocate(p);
  auto bf = oracle::brute_force_max_min_aggregates(p);
  // Continuous optimum is lexicographically >= any integer point.
  EXPECT_GE(lexicographic_compare(a.aggregates(), bf, 1e-6), 0)
      << "seed " << GetParam();
  // And the totals agree with Pareto efficiency: AMF total >= integer total
  // is implied; check AMF is itself efficient.
  EXPECT_TRUE(is_pareto_efficient(p, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmfBruteForceTest, ::testing::Range(0, 30));

TEST(Amf, LargeInstanceStaysFairAcrossSkews) {
  for (double skew : {0.0, 0.8, 1.6}) {
    auto cfg = workload::paper_default(skew, 7);
    cfg.jobs = 60;
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto a = kAmf.allocate(p);
    EXPECT_TRUE(a.feasible_for(p)) << "skew " << skew;
    EXPECT_TRUE(is_max_min_fair(p, a.aggregates())) << "skew " << skew;
  }
}

TEST(Amf, BalancesBetterThanBaselineUnderSkew) {
  auto cfg = workload::paper_default(1.5, 11);
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto amf_report = fairness_report(p, kAmf.allocate(p));
  auto psmf_report = fairness_report(p, kPsmf.allocate(p));
  EXPECT_GT(amf_report.jain, psmf_report.jain);
  EXPECT_GE(amf_report.min_aggregate, psmf_report.min_aggregate - 1e-6);
}

TEST(ReferenceChecker, RejectsUnfairVectors) {
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  // Feasible but unfair: job 0 starved below its possible share.
  EXPECT_FALSE(is_max_min_fair(p, {2.0, 10.0, 8.0}));
  // Pareto-dominated: capacity left on the table.
  EXPECT_FALSE(is_max_min_fair(p, {5.0, 5.0, 5.0}));
  // Infeasible.
  EXPECT_FALSE(is_max_min_fair(p, {11.0, 5.0, 4.0}));
  // The true optimum passes.
  EXPECT_TRUE(is_max_min_fair(p, {20.0 / 3, 20.0 / 3, 20.0 / 3}));
}

TEST(ReferenceChecker, BruteForceGuardsAgainstBlowup) {
  AllocationProblem p(Matrix(6, std::vector<double>(6, 50.0)),
                      std::vector<double>(6, 50.0));
  EXPECT_THROW(oracle::brute_force_max_min_aggregates(p, 1000),
               util::ContractError);
}

TEST(Metrics, LexicographicCompare) {
  EXPECT_EQ(lexicographic_compare({1, 2, 3}, {3, 2, 1}), 0);  // same sorted
  EXPECT_GT(lexicographic_compare({2, 2, 2}, {1, 2, 3}), 0);
  EXPECT_LT(lexicographic_compare({0, 5, 5}, {1, 4, 5}), 0);
  EXPECT_THROW(lexicographic_compare({1}, {1, 2}), util::ContractError);
}

TEST(Metrics, FairnessReportOnKnownAllocation) {
  AllocationProblem p({{10, 0}, {0, 10}}, {10, 10});
  Allocation a(Matrix{{10, 0}, {0, 10}});
  auto r = fairness_report(p, a);
  EXPECT_DOUBLE_EQ(r.jain, 1.0);
  EXPECT_DOUBLE_EQ(r.min_max, 1.0);
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_aggregate, 10.0);
}


class AmfLpDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AmfLpDifferentialTest, FlowAndLpLeximinAgree) {
  // Third independent oracle: the sequential-leximin LP procedure shares
  // no code with the flow-based allocator; the aggregate vectors must
  // coincide (sorted and per job — the AMF optimum is unique).
  auto cfg = workload::property_sweep(
      static_cast<std::uint64_t>(8600 + GetParam()));
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto a = kAmf.allocate(p);
  auto via_lp = oracle::lp_max_min_aggregates(p);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(a.aggregate(j), via_lp[static_cast<std::size_t>(j)],
                1e-4 * p.scale())
        << "seed " << GetParam() << " job " << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmfLpDifferentialTest,
                         ::testing::Range(0, 20));

TEST(AmfLpDifferential, WeightedInstancesAgreeToo) {
  util::Rng rng(606);
  for (int trial = 0; trial < 8; ++trial) {
    auto cfg = workload::property_sweep(8700 + trial);
    cfg.jobs = 6;
    workload::Generator gen(cfg);
    auto base = gen.generate();
    std::vector<double> weights(static_cast<std::size_t>(base.jobs()));
    for (auto& w : weights) w = rng.uniform(0.5, 3.0);
    AllocationProblem p(test::dense_demands(base), base.capacities(), {},
                        weights);
    auto a = kAmf.allocate(p);
    auto via_lp = oracle::lp_max_min_aggregates(p);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(a.aggregate(j), via_lp[static_cast<std::size_t>(j)],
                  1e-4 * p.scale())
          << "trial " << trial << " job " << j;
  }
}


// Scaling every weight by one factor leaves the AMF allocation unchanged;
// the reference's freeze probe asks for extra aggregate in quantity units,
// so large weights must not freeze a job short of what it can still get.
TEST(AmfLpDifferential, ScalingEveryWeightLeavesTheReferenceUnchanged) {
  for (double w : {1.0, 1000.0, 1e6}) {
    AllocationProblem p({{0.4999}, {1.0}}, {1.0}, {}, {w, w});
    auto via_lp = oracle::lp_max_min_aggregates(p);
    EXPECT_NEAR(via_lp[0], 0.4999, 1e-6) << "weight " << w;
    EXPECT_NEAR(via_lp[1], 0.5001, 1e-6) << "weight " << w;
  }
  util::Rng rng(606);
  for (int trial = 0; trial < 8; ++trial) {
    auto cfg = workload::property_sweep(8700 + trial);
    cfg.jobs = 6;
    workload::Generator gen(cfg);
    auto base = gen.generate();
    std::vector<double> weights(static_cast<std::size_t>(base.jobs()));
    for (auto& w : weights) w = 1000.0 * rng.uniform(0.5, 3.0);
    AllocationProblem p(test::dense_demands(base), base.capacities(), {},
                        weights);
    auto a = kAmf.allocate(p);
    auto via_lp = oracle::lp_max_min_aggregates(p);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(a.aggregate(j), via_lp[static_cast<std::size_t>(j)],
                  1e-4 * p.scale())
          << "trial " << trial << " job " << j;
  }
}

// At unit scale the reference's probe step (1e-6·scale) sits below the
// simplex's absolute feasibility slack; the leximin must still tell a
// capped job from one that can rise, not settle both at the first level.
TEST(AmfLpDifferential, UnitScaleInstancesAgreeToo) {
  AllocationProblem capped({{0.25}, {1.0}}, {1.0});
  auto via_lp = oracle::lp_max_min_aggregates(capped);
  EXPECT_NEAR(via_lp[0], 0.25, 1e-6);
  EXPECT_NEAR(via_lp[1], 0.75, 1e-6);
  util::Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    Matrix d(5, std::vector<double>(3, 0.0));
    for (auto& row : d)
      for (auto& x : row) x = rng.bernoulli(0.6) ? rng.uniform(0.05, 1.0) : 0.0;
    std::vector<double> caps{rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0),
                             rng.uniform(0.2, 1.0)};
    AllocationProblem p(d, caps);
    auto a = kAmf.allocate(p);
    via_lp = oracle::lp_max_min_aggregates(p);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(a.aggregate(j), via_lp[static_cast<std::size_t>(j)],
                  1e-4 * p.scale())
          << "trial " << trial << " job " << j;
  }
}

// Every allocator's result lives on its problem's demand support: its
// rows hold exactly the demand entries (ascending sites, zeros kept),
// share() reads +0.0 everywhere else, and each aggregate is its row's
// shares added in ascending site order.
TEST(SparseAllocation, SharesLiveOnTheDemandSupport) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::uint64_t seed : {17u, 18u, 19u}) {
    auto cfg = workload::paper_default(1.0, seed);
    cfg.jobs = 40;
    cfg.sites = 8;
    cfg.sites_per_job_max = 3;
    workload::Generator gen(cfg);
    const AllocationProblem p = gen.generate();
    const Allocation amf = AmfAllocator().allocate(p);
    const Allocation none(flow::ShareRows::zeros_on(p.demands()), {});
    const std::vector<Allocation> results{
        amf, EnhancedAmfAllocator().allocate(p), PerSiteMaxMin().allocate(p),
        JctAddon().optimize(p, amf), StabilityAddon().optimize(p, amf, none)};
    for (const Allocation& a : results) {
      SCOPED_TRACE(a.policy() + " seed " + std::to_string(seed));
      ASSERT_EQ(a.jobs(), p.jobs());
      ASSERT_EQ(a.sites(), p.sites());
      ASSERT_EQ(a.shares().first, p.demands().first);
      for (std::size_t k = 0; k < p.demands().entries.size(); ++k)
        ASSERT_EQ(a.shares().sites[k], p.demands().entries[k].site);
      for (int j = 0; j < p.jobs(); ++j) {
        double sum = 0.0;
        for (double v : a.shares()[static_cast<std::size_t>(j)]) sum += v;
        EXPECT_EQ(bits(a.aggregate(j)), bits(sum)) << "job " << j;
        for (int s = 0; s < p.sites(); ++s) {
          if (p.demand(j, s) == 0.0) {
            EXPECT_EQ(bits(a.share(j, s)), bits(0.0))
                << "job " << j << " site " << s;
          }
        }
      }
    }
  }
}

TEST(FillTrace, SymmetricJobsFreezeTogether) {
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  AmfAllocator amf;
  SolveReport report;
  amf.allocate_with_report(p, report);
  const auto& trace = report.trace;
  ASSERT_EQ(trace.freeze_round.size(), 3u);
  EXPECT_EQ(trace.rounds, 1);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(trace.freeze_round[static_cast<std::size_t>(j)], 1);
    EXPECT_NEAR(trace.freeze_level[static_cast<std::size_t>(j)], 20.0 / 3.0,
                1e-6);
  }
}

TEST(FillTrace, BottleneckRoundsOrdered) {
  // Captive jobs on the hot site freeze in round 1 at level 5; the
  // private-site job continues to round 2 at level 10.
  AllocationProblem p({{10, 0}, {10, 0}, {0, 10}}, {10, 10});
  AmfAllocator amf;
  SolveReport report;
  amf.allocate_with_report(p, report);
  const auto& trace = report.trace;
  EXPECT_EQ(trace.rounds, 2);
  EXPECT_EQ(trace.freeze_round[0], 1);
  EXPECT_EQ(trace.freeze_round[1], 1);
  EXPECT_EQ(trace.freeze_round[2], 2);
  EXPECT_NEAR(trace.freeze_level[0], 5.0, 1e-6);
  EXPECT_NEAR(trace.freeze_level[2], 10.0, 1e-6);
}

TEST(FillTrace, StructurallyZeroJobsAreRoundZero) {
  AllocationProblem p({{0, 0}, {10, 10}}, {10, 10});
  AmfAllocator amf;
  SolveReport report;
  amf.allocate_with_report(p, report);
  const auto& trace = report.trace;
  EXPECT_EQ(trace.freeze_round[0], 0);
  EXPECT_DOUBLE_EQ(trace.freeze_level[0], 0.0);
  EXPECT_GE(trace.freeze_round[1], 1);
}

TEST(FillTrace, LevelsMatchAggregatesOnRandomInstances) {
  AmfAllocator amf;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto cfg = workload::property_sweep(9500 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    SolveReport report;
    auto a = amf.allocate_with_report(p, report);
    const auto& trace = report.trace;
    for (int j = 0; j < p.jobs(); ++j) {
      EXPECT_NEAR(trace.freeze_level[static_cast<std::size_t>(j)] *
                      p.weight(j),
                  a.aggregate(j), 1e-6 * p.scale())
          << "seed " << seed << " job " << j;
    }
    // Later rounds freeze at weakly higher levels.
    for (int j = 0; j < p.jobs(); ++j)
      for (int k = 0; k < p.jobs(); ++k)
        if (trace.freeze_round[static_cast<std::size_t>(j)] <
            trace.freeze_round[static_cast<std::size_t>(k)]) {
          EXPECT_LE(trace.freeze_level[static_cast<std::size_t>(j)],
                    trace.freeze_level[static_cast<std::size_t>(k)] + 1e-6)
              << "seed " << seed;
        }
  }
}

}  // namespace
}  // namespace amf::core
