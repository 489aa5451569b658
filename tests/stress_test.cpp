// Stress and robustness tests: large instances, extreme numeric scales,
// adversarial structures (chains, stars, blocks, clones), metamorphic
// properties (method agreement, symmetry, monotonicity under scaling),
// and failure injection through malformed inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "core/properties.hpp"
#include "core/reference.hpp"
#include "core/single_site.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

const AmfAllocator kAmf;

TEST(Stress, LargeInstanceIsFair) {
  auto cfg = workload::paper_default(1.3, 404);
  cfg.jobs = 300;
  cfg.sites = 20;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto a = kAmf.allocate(p);
  EXPECT_TRUE(a.feasible_for(p));
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
}

TEST(Stress, TinyScale) {
  // Everything around 1e-6: tolerances are relative, results must hold.
  Matrix d{{1e-6, 0}, {1e-6, 1e-6}, {0, 1e-6}};
  AllocationProblem p(d, {1e-6, 1e-6});
  auto a = kAmf.allocate(p);
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(a.aggregate(j), 2e-6 / 3.0, 1e-12);
}

TEST(Stress, HugeScale) {
  Matrix d{{1e9, 0}, {1e9, 1e9}, {0, 1e9}};
  AllocationProblem p(d, {1e9, 1e9});
  auto a = kAmf.allocate(p);
  for (int j = 0; j < 3; ++j)
    EXPECT_NEAR(a.aggregate(j), 2e9 / 3.0, 1.0);
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
}

TEST(Stress, MixedScalesWithinInstance) {
  // One large site and one tiny site spanning seven orders of magnitude
  // — the documented dynamic-range limit of the relative flow tolerance
  // (quantities below eps·scale of the largest value are treated as
  // noise; see AllocationProblem::scale()).
  Matrix d{{1e5, 1e-2}, {1e5, 1e-2}};
  AllocationProblem p(d, {1e5, 1e-2});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), a.aggregate(1), 1e-3);
  EXPECT_NEAR(a.site_usage(1), 1e-2, 1e-3);
}

TEST(Stress, ChainStructure) {
  // Jobs overlap pairwise along a chain of sites — the worst case for
  // cascading water levels. n sites of capacity 1; job i spans sites
  // {i, i+1}.
  const int m = 24;
  const int n = m - 1;
  Matrix d(static_cast<std::size_t>(n),
           std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < n; ++j) {
    d[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] = 1.0;
    d[static_cast<std::size_t>(j)][static_cast<std::size_t>(j + 1)] = 1.0;
  }
  AllocationProblem p(d, std::vector<double>(static_cast<std::size_t>(m), 1.0));
  auto a = kAmf.allocate(p);
  EXPECT_TRUE(a.feasible_for(p));
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
  // By symmetry of the chain the aggregate vector is feasible at
  // m/n each: every job should reach at least 1.
  for (int j = 0; j < n; ++j) EXPECT_GE(a.aggregate(j), 1.0 - 1e-6);
}

TEST(Stress, StarStructure) {
  // One hub job on every site, many leaf jobs captive on one site each.
  const int m = 16;
  Matrix d(static_cast<std::size_t>(m + 1),
           std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int s = 0; s < m; ++s) {
    d[0][static_cast<std::size_t>(s)] = 10.0;            // hub
    d[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(s)] = 10.0;
  }
  AllocationProblem p(d, std::vector<double>(static_cast<std::size_t>(m), 10.0));
  auto a = kAmf.allocate(p);
  EXPECT_TRUE(is_max_min_fair(p, a.aggregates()));
  // Total capacity 160 over 17 jobs: everyone gets 160/17.
  for (int j = 0; j <= m; ++j)
    EXPECT_NEAR(a.aggregate(j), 160.0 / 17.0, 1e-5);
}

TEST(Stress, BlockDiagonalDecomposes) {
  // Two independent clusters: AMF on the union must equal AMF on each
  // block (no cross-talk through the flow network).
  Matrix d{{10, 10, 0, 0}, {10, 10, 0, 0},        // block A: 2 jobs
           {0, 0, 8, 0}, {0, 0, 8, 8}, {0, 0, 0, 8}};  // block B: 3 jobs
  AllocationProblem p(d, {6, 6, 8, 8});
  auto a = kAmf.allocate(p);
  // Block A: 12 capacity / 2 jobs.
  EXPECT_NEAR(a.aggregate(0), 6.0, 1e-6);
  EXPECT_NEAR(a.aggregate(1), 6.0, 1e-6);
  // Block B mirrors the symmetric triangle: 16/3 each.
  for (int j = 2; j < 5; ++j)
    EXPECT_NEAR(a.aggregate(j), 16.0 / 3.0, 1e-6);
}

TEST(Stress, ClonedJobsGetEqualAggregates) {
  // Identical jobs must receive identical aggregates (anonymity).
  auto cfg = workload::property_sweep(88);
  cfg.jobs = 4;
  workload::Generator gen(cfg);
  auto base = gen.generate();
  Matrix d = test::dense_demands(base);
  Matrix w = test::dense_workloads(base);
  // Clone job 0 three times.
  for (int c = 0; c < 3; ++c) {
    d.push_back(d[0]);
    w.push_back(w[0]);
  }
  AllocationProblem p(std::move(d), base.capacities(), std::move(w));
  auto a = kAmf.allocate(p);
  for (int c = 4; c < 7; ++c)
    EXPECT_NEAR(a.aggregate(c), a.aggregate(0), 1e-5 * p.scale());
}

TEST(Stress, MethodsAgreeOnRandomInstances) {
  // Cut-Newton and bisection level search must produce identical
  // aggregates (the F10 ablation's correctness premise).
  AmfAllocator newton(1e-9, flow::LevelMethod::kCutNewton);
  AmfAllocator bisection(1e-9, flow::LevelMethod::kBisection);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto cfg = workload::property_sweep(7100 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto a = newton.allocate(p);
    auto b = bisection.allocate(p);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(a.aggregate(j), b.aggregate(j), 1e-5 * p.scale())
          << "seed " << seed << " job " << j;
  }
}

TEST(Stress, CapacityScalingMonotonicity) {
  // Doubling every capacity must not reduce any job's AMF aggregate
  // (resource monotonicity holds for replica-scaling of the whole
  // system even though adding capacity to a single site may not).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto cfg = workload::property_sweep(7300 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto a = kAmf.allocate(p);
    std::vector<double> caps = p.capacities();
    for (auto& c : caps) c *= 2.0;
    Matrix d = test::dense_demands(p);
    // Demands capped at old capacities stay valid under bigger ones.
    AllocationProblem bigger(std::move(d), std::move(caps),
                             test::dense_workloads(p));
    auto b = kAmf.allocate(bigger);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_GE(b.aggregate(j), a.aggregate(j) - 1e-5 * p.scale())
          << "seed " << seed << " job " << j;
  }
}

TEST(Stress, RemovingAJobNeverHurtsOthers) {
  // Population monotonicity of max-min fairness: with one competitor
  // gone, every remaining job's aggregate is weakly larger.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto cfg = workload::property_sweep(7400 + seed);
    workload::Generator gen(cfg);
    auto p = gen.generate();
    auto full = kAmf.allocate(p);
    std::vector<int> keep;
    for (int j = 1; j < p.jobs(); ++j) keep.push_back(j);
    auto reduced_problem = p.subset(keep);
    auto reduced = kAmf.allocate(reduced_problem);
    for (std::size_t i = 0; i < keep.size(); ++i)
      EXPECT_GE(reduced.aggregate(static_cast<int>(i)),
                full.aggregate(keep[i]) - 1e-5 * p.scale())
          << "seed " << seed << " job " << keep[i];
  }
}

TEST(Stress, ManyZeroDemandJobs) {
  const int n = 50;
  Matrix d(static_cast<std::size_t>(n), std::vector<double>(2, 0.0));
  d[0] = {10.0, 10.0};  // only job 0 can use anything
  AllocationProblem p(std::move(d), {10, 10});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(a.aggregate(0), 20.0, 1e-6);
  for (int j = 1; j < n; ++j) EXPECT_DOUBLE_EQ(a.aggregate(j), 0.0);
}

TEST(Stress, AllZeroCapacities) {
  AllocationProblem p({{0, 0}, {0, 0}}, {0, 0});
  auto a = kAmf.allocate(p);
  EXPECT_DOUBLE_EQ(a.aggregate(0), 0.0);
  EXPECT_DOUBLE_EQ(a.aggregate(1), 0.0);
}

TEST(Stress, SingleSiteMatchesWaterFilling) {
  // On one site AMF must coincide with classic water-filling exactly.
  util::Rng rng(7500);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_index(8));
    Matrix d(static_cast<std::size_t>(n), std::vector<double>(1, 0.0));
    std::vector<double> caps(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      caps[static_cast<std::size_t>(j)] = rng.uniform(0.0, 10.0);
      d[static_cast<std::size_t>(j)][0] = caps[static_cast<std::size_t>(j)];
    }
    double capacity = rng.uniform(1.0, 25.0);
    AllocationProblem p(d, {capacity});
    auto a = kAmf.allocate(p);
    auto expected = water_fill(caps, capacity);
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(a.aggregate(j), expected[static_cast<std::size_t>(j)],
                  1e-6)
          << "trial " << trial;
  }
}

TEST(Stress, EamfLargeInstance) {
  auto cfg = workload::paper_default(1.5, 505);
  cfg.jobs = 200;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  EnhancedAmfAllocator eamf;
  auto e = eamf.allocate(p);
  EXPECT_TRUE(e.feasible_for(p));
  EXPECT_TRUE(satisfies_sharing_incentive(p, e));
}

}  // namespace
}  // namespace amf::core
