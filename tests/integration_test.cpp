// End-to-end integration tests: the full generator → allocator → add-on
// → simulator pipeline, trace serialization round-trips, and
// cross-module consistency (static allocation quantities vs what the
// simulator actually delivers at t = 0).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

#include "dense_mirror.hpp"
#include "amf.hpp"

namespace amf {
namespace {

TEST(Integration, FullPipelineBatch) {
  // Generate, allocate, optimize, simulate — every stage must agree on
  // shapes and invariants.
  auto cfg = workload::paper_default(1.2, 9001);
  cfg.jobs = 40;
  workload::Generator gen(cfg);
  auto problem = gen.generate();

  core::AmfAllocator amf;
  auto allocation = amf.allocate(problem);
  ASSERT_TRUE(allocation.feasible_for(problem));
  ASSERT_TRUE(core::is_max_min_fair(problem, allocation.aggregates()));

  core::JctAddon addon;
  auto optimized = addon.optimize(problem, allocation);
  ASSERT_TRUE(optimized.feasible_for(problem));
  for (int j = 0; j < problem.jobs(); ++j)
    ASSERT_NEAR(optimized.aggregate(j), allocation.aggregate(j),
                1e-5 * problem.scale());

  // The same jobs as a batch trace through the simulator.
  workload::Trace trace;
  trace.capacities = problem.capacities();
  for (int j = 0; j < problem.jobs(); ++j) {
    workload::TraceJob job;
    job.arrival = 0.0;
    job.workloads.resize(static_cast<std::size_t>(problem.sites()));
    job.demands.resize(static_cast<std::size_t>(problem.sites()));
    for (int s = 0; s < problem.sites(); ++s) {
      job.workloads[static_cast<std::size_t>(s)] = problem.workload(j, s);
      job.demands[static_cast<std::size_t>(s)] = problem.demand(j, s);
    }
    trace.jobs.push_back(std::move(job));
  }
  sim::Simulator simulator(amf);
  auto records = simulator.run(trace);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(problem.jobs()));
  for (const auto& r : records) {
    EXPECT_TRUE(std::isfinite(r.completion));
    EXPECT_GE(r.completion, 0.0);
    // A job can never finish faster than its proportional ideal under
    // the *best possible* aggregate (its solo ceiling).
    int j = r.id;
    double ceiling = problem.solo_ceiling(j);
    if (ceiling > 0.0 && r.total_work > 0.0) {
      EXPECT_GE(r.completion, r.total_work / ceiling - 1e-9);
    }
  }
}

TEST(Integration, TraceCsvRoundTrip) {
  auto cfg = workload::paper_default(0.8, 777);
  workload::Generator gen(cfg);
  auto trace = workload::generate_trace(gen, 0.6, 25);
  std::stringstream ss;
  workload::save_trace(trace, ss);
  auto loaded = workload::load_trace(ss);
  ASSERT_EQ(loaded.jobs.size(), trace.jobs.size());
  ASSERT_EQ(loaded.capacities.size(), trace.capacities.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_NEAR(loaded.jobs[i].arrival, trace.jobs[i].arrival, 1e-9);
    for (std::size_t s = 0; s < trace.capacities.size(); ++s) {
      EXPECT_NEAR(loaded.jobs[i].workloads[s], trace.jobs[i].workloads[s],
                  1e-9);
      EXPECT_NEAR(loaded.jobs[i].demands[s], trace.jobs[i].demands[s], 1e-9);
    }
  }
  // The round-tripped trace must simulate identically.
  core::AmfAllocator amf;
  sim::Simulator s1(amf), s2(amf);
  auto r1 = s1.run(trace);
  auto r2 = s2.run(loaded);
  for (std::size_t i = 0; i < r1.size(); ++i)
    EXPECT_NEAR(r1[i].completion, r2[i].completion, 1e-6);
}

TEST(Integration, ProblemCsvDrivesIdenticalAllocation) {
  auto cfg = workload::property_sweep(4040);
  workload::Generator gen(cfg);
  auto problem = gen.generate();
  std::stringstream ss;
  problem.save(ss);
  auto loaded = core::AllocationProblem::load(ss);
  core::AmfAllocator amf;
  auto a = amf.allocate(problem);
  auto b = amf.allocate(loaded);
  for (int j = 0; j < problem.jobs(); ++j)
    EXPECT_NEAR(a.aggregate(j), b.aggregate(j), 1e-9);
}

TEST(Integration, AllPoliciesAgreeOnUncontestedInstances) {
  // When total demand fits total capacity everywhere, every policy gives
  // every job exactly its demand.
  core::Matrix d{{3, 0}, {2, 4}, {0, 1}};
  core::AllocationProblem p(d, {10, 10});
  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  core::PerSiteMaxMin psmf;
  for (const core::Allocator* policy :
       std::initializer_list<const core::Allocator*>{&amf, &eamf, &psmf}) {
    auto a = policy->allocate(p);
    EXPECT_NEAR(a.aggregate(0), 3.0, 1e-6) << policy->name();
    EXPECT_NEAR(a.aggregate(1), 6.0, 1e-6) << policy->name();
    EXPECT_NEAR(a.aggregate(2), 1.0, 1e-6) << policy->name();
  }
}

TEST(Integration, WeightedPipelineEndToEnd) {
  // Weighted jobs through generation, allocation and simulation.
  auto cfg = workload::paper_default(1.0, 31337);
  cfg.jobs = 20;
  workload::Generator gen(cfg);
  auto base = gen.generate();
  std::vector<double> weights(static_cast<std::size_t>(base.jobs()));
  util::Rng rng(5);
  for (auto& w : weights) w = rng.uniform(0.5, 3.0);
  core::AllocationProblem p(test::dense_demands(base), base.capacities(),
                            test::dense_workloads(base), weights);
  core::AmfAllocator amf;
  auto a = amf.allocate(p);
  EXPECT_TRUE(a.feasible_for(p));
  EXPECT_TRUE(core::is_max_min_fair(p, a.aggregates()));

  workload::Trace trace;
  trace.capacities = p.capacities();
  for (int j = 0; j < p.jobs(); ++j) {
    workload::TraceJob job;
    job.arrival = 0.1 * j;
    job.weight = p.weight(j);
    job.workloads.resize(static_cast<std::size_t>(p.sites()));
    job.demands.resize(static_cast<std::size_t>(p.sites()));
    for (int s = 0; s < p.sites(); ++s) {
      job.workloads[static_cast<std::size_t>(s)] = p.workload(j, s);
      job.demands[static_cast<std::size_t>(s)] = p.demand(j, s);
    }
    trace.jobs.push_back(std::move(job));
  }
  sim::Simulator simulator(amf);
  auto records = simulator.run(trace);
  for (const auto& r : records) EXPECT_TRUE(std::isfinite(r.completion));
}

TEST(Integration, MultiResourceSingleResourceConsistency) {
  // With one resource type and unit profiles, the multi-resource model
  // collapses to the single-resource model: ADRF task counts must match
  // AMF aggregates (dominant share = tasks / total capacity).
  core::Matrix d{{10, 0}, {10, 10}, {0, 10}};
  core::AllocationProblem p(d, {10, 10});
  core::AmfAllocator amf;
  auto a = amf.allocate(p);

  const auto mp = core::AllocationProblem::multi(
      {{10, 0}, {10, 10}, {0, 10}}, {{10}, {10}}, {{1}, {1}, {1}});
  multiresource::AggregateDrfAllocator adrf;
  auto x = adrf.allocate(mp);
  for (int j = 0; j < 3; ++j) {
    double tasks = x[static_cast<std::size_t>(j)][0] +
                   x[static_cast<std::size_t>(j)][1];
    EXPECT_NEAR(tasks, a.aggregate(j), 1e-3) << "job " << j;
  }
}

}  // namespace
}  // namespace amf
