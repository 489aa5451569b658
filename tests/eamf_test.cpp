// Tests for Enhanced AMF: the sharing-incentive guarantee it exists for,
// exact values on hand-verified counterexample instances where plain AMF
// violates the property, coincidence with AMF when floors don't bind, and
// Pareto efficiency of the floor-constrained solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "core/properties.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

const AmfAllocator kAmf;
const EnhancedAmfAllocator kEamf;

// A hand-verified instance (found by exhaustive search) where AMF
// violates sharing incentive: caps (4, 6), demands below. AMF equalizes
// everyone at 3, but jobs 0 and 1 are each entitled to 10/3 under the
// static equal split.
AllocationProblem si_counterexample() {
  return AllocationProblem({{2, 2}, {5, 2}, {4, 1}}, {4, 6});
}

TEST(Eamf, AmfViolatesSharingIncentiveOnCounterexample) {
  auto p = si_counterexample();
  auto a = kAmf.allocate(p);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.aggregate(j), 3.0, 1e-6);
  EXPECT_GT(max_sharing_incentive_violation(p, a), 0.3);
  EXPECT_FALSE(satisfies_sharing_incentive(p, a));
}

TEST(Eamf, RestoresSharingIncentiveOnCounterexample) {
  auto p = si_counterexample();
  auto e = kEamf.allocate(p);
  // Exact optimum with floors: (10/3, 10/3, 7/3) — verified by hand: the
  // floors of jobs 0 and 1 fill site A completely, pinning job 2 at its
  // own floor.
  EXPECT_NEAR(e.aggregate(0), 10.0 / 3.0, 1e-6);
  EXPECT_NEAR(e.aggregate(1), 10.0 / 3.0, 1e-6);
  EXPECT_NEAR(e.aggregate(2), 7.0 / 3.0, 1e-6);
  EXPECT_TRUE(satisfies_sharing_incentive(p, e));
  EXPECT_TRUE(e.feasible_for(p));
  EXPECT_TRUE(is_pareto_efficient(p, e));
  EXPECT_EQ(e.policy(), "E-AMF");
}

TEST(Eamf, TradesLexFairnessForTheGuarantee) {
  // On the counterexample the E-AMF vector is lexicographically below
  // AMF's — the documented cost of the sharing-incentive floor.
  auto p = si_counterexample();
  auto a = kAmf.allocate(p);
  auto e = kEamf.allocate(p);
  EXPECT_LT(lexicographic_compare(e.aggregates(), a.aggregates(), 1e-6), 0);
}

TEST(Eamf, SharingFloorsMatchEqualSplit) {
  auto p = si_counterexample();
  auto floors = EnhancedAmfAllocator::sharing_floors(p);
  ASSERT_EQ(floors.size(), 3u);
  EXPECT_NEAR(floors[0], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(floors[1], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(floors[2], 7.0 / 3.0, 1e-12);
}

TEST(Eamf, CoincidesWithAmfWhenFloorsDontBind) {
  // Symmetric triangle: AMF already gives everyone above the equal split.
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  auto a = kAmf.allocate(p);
  auto e = kEamf.allocate(p);
  ASSERT_TRUE(satisfies_sharing_incentive(p, a));
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(e.aggregate(j), a.aggregate(j), 1e-6);
}

TEST(Eamf, SecondCounterexampleExactValues) {
  // caps (6, 1); AMF = (2, 0.5, 0.5) starves job 0 below its 7/3 split.
  AllocationProblem p({{2, 3}, {0, 4}, {0, 6}}, {6, 1});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 2.0, 1e-6);
  EXPECT_GT(max_sharing_incentive_violation(p, a), 0.3);
  auto e = kEamf.allocate(p);
  EXPECT_NEAR(e.aggregate(0), 7.0 / 3.0, 1e-6);
  EXPECT_NEAR(e.aggregate(1), 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(e.aggregate(2), 1.0 / 3.0, 1e-6);
  EXPECT_TRUE(satisfies_sharing_incentive(p, e));
}

TEST(Eamf, WeightedFloors) {
  // Weight-2 job entitled to 2/3 of each site under the weighted split.
  AllocationProblem p({{12, 12}, {12, 12}}, {12, 12}, {}, {2.0, 1.0});
  auto floors = EnhancedAmfAllocator::sharing_floors(p);
  EXPECT_NEAR(floors[0], 16.0, 1e-12);
  EXPECT_NEAR(floors[1], 8.0, 1e-12);
  auto e = kEamf.allocate(p);
  EXPECT_GE(e.aggregate(0), floors[0] - 1e-6);
  EXPECT_GE(e.aggregate(1), floors[1] - 1e-6);
}

class EamfSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(EamfSweepTest, AlwaysSatisfiesSharingIncentive) {
  auto cfg = workload::property_sweep(static_cast<std::uint64_t>(GetParam()));
  workload::Generator gen(cfg);
  for (int i = 0; i < 4; ++i) {
    auto p = gen.generate();
    auto e = kEamf.allocate(p);
    EXPECT_TRUE(e.feasible_for(p)) << "instance " << i;
    EXPECT_TRUE(satisfies_sharing_incentive(p, e))
        << "violation " << max_sharing_incentive_violation(p, e)
        << " instance " << i;
    EXPECT_TRUE(is_pareto_efficient(p, e)) << "instance " << i;
    // Every job at or above its floor, explicitly.
    auto floors = EnhancedAmfAllocator::sharing_floors(p);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_GE(e.aggregate(j), floors[static_cast<std::size_t>(j)] - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EamfSweepTest, ::testing::Range(0, 25));

TEST(Eamf, NeverBelowAmfMinimumByMoreThanFloorLogicAllows) {
  // Structural sanity on larger instances: E-AMF stays feasible and
  // efficient with the default evaluation workload.
  auto cfg = workload::paper_default(1.4, 21);
  cfg.jobs = 50;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto e = kEamf.allocate(p);
  EXPECT_TRUE(e.feasible_for(p));
  EXPECT_TRUE(satisfies_sharing_incentive(p, e));
  EXPECT_TRUE(is_pareto_efficient(p, e));
}

TEST(Eamf, ZeroJobs) {
  AllocationProblem p(Matrix{}, {5.0});
  auto e = kEamf.allocate(p);
  EXPECT_EQ(e.jobs(), 0);
}

TEST(Eamf, SingleJobGetsCeiling) {
  AllocationProblem p({{3, 4}}, {10, 10});
  auto e = kEamf.allocate(p);
  EXPECT_NEAR(e.aggregate(0), 7.0, 1e-6);
}

TEST(DemandIndexFloors, MatchThePerJobFormulaOn1000Jobs) {
  // sharing_floors sums the weights once and walks each job's sparse row;
  // every floor must equal the per-job dense formula over the dense input
  // matrix bit for bit, and the sharing-incentive audit must agree with
  // it too.
  workload::GeneratorConfig config;
  config.jobs = 1000;
  config.sites = 100;
  config.sites_per_job_min = 2;
  config.sites_per_job_max = 8;
  config.demand_model = workload::DemandModel::kProportionalToWork;
  config.seed = 21;
  const auto generated = workload::Generator(config).generate();
  util::Rng rng(3);
  std::vector<double> weights(1000);
  for (auto& w : weights) w = rng.uniform(0.25, 4.0);
  const Matrix demands = test::dense_demands(generated);
  const AllocationProblem p(demands, generated.capacities(), {}, weights);

  const auto floors = EnhancedAmfAllocator::sharing_floors(p);
  ASSERT_EQ(floors.size(), 1000u);
  const double weight_total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  // Any allocation serves the audit; this one grants a third of each
  // demand.
  Matrix shares = demands;
  for (auto& row : shares)
    for (auto& a : row) a /= 3.0;
  const Allocation third(std::move(shares));
  double worst = 0.0;
  for (int j = 0; j < p.jobs(); ++j) {
    double share = 0.0;
    for (int s = 0; s < p.sites(); ++s)
      share += std::min(demands[static_cast<std::size_t>(j)]
                               [static_cast<std::size_t>(s)],
                        p.capacity(s) * p.weight(j) / weight_total);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(floors[static_cast<std::size_t>(j)]),
              std::bit_cast<std::uint64_t>(share))
        << "job " << j;
    worst = std::max(worst, share - third.aggregate(j));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                max_sharing_incentive_violation(p, third)),
            std::bit_cast<std::uint64_t>(worst));
}

}  // namespace
}  // namespace amf::core
