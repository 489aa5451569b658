// multires_lift_test.cpp — the multi-resource lift, both directions:
//
//  * R1Equiv: randomized same-binary equivalence — a 1-resource problem
//    built through the lifted (matrix) path must be bit-identical to the
//    scalar path everywhere (allocators, workspace delta replay, serving
//    responses). Complements the r1_equiv golden pins, which freeze the
//    scalar path against the pre-refactor bytes.
//  * MultiRes*: the R>1 invariants — incremental ≡ from-scratch for the
//    workspace and the simulator, trace/snapshot round-trips, generator
//    output validity, and svc journal replay ≡ uncrashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/persite.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "flow/transport.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc_test_executor.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/faults.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace amf {
namespace {

// ---------------------------------------------------------------------
// Shared instance builders.

core::Matrix random_demands(util::Rng& rng, int n, int m) {
  core::Matrix demands(static_cast<std::size_t>(n),
                       std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < n; ++j) {
    bool any = false;
    for (int s = 0; s < m; ++s)
      if (rng.bernoulli(0.7)) {
        demands[j][s] = rng.uniform(0.25, 4.0);
        any = true;
      }
    if (!any) demands[j][j % m] = rng.uniform(1.0, 2.0);
  }
  return demands;
}

core::Matrix random_profiles(util::Rng& rng, int n, int r) {
  core::Matrix profiles(static_cast<std::size_t>(n),
                        std::vector<double>(static_cast<std::size_t>(r), 0.0));
  for (auto& row : profiles) {
    for (auto& v : row) v = rng.bernoulli(0.8) ? rng.uniform(0.2, 1.5) : 0.0;
    if (std::none_of(row.begin(), row.end(),
                     [](double v) { return v > 0.0; }))
      row[0] = 1.0;
  }
  return profiles;
}

core::Matrix random_capacity_matrix(util::Rng& rng, int m, int r) {
  core::Matrix capacity(static_cast<std::size_t>(m),
                        std::vector<double>(static_cast<std::size_t>(r), 0.0));
  for (auto& row : capacity)
    for (auto& v : row) v = rng.uniform(4.0, 12.0);
  return capacity;
}

// ---------------------------------------------------------------------
// R1Equiv: the lifted path at R=1 is bit-identical to the scalar path.

TEST(R1Equiv, AllocatorsBitIdenticalToScalarPath) {
  const core::AmfAllocator amf;
  const core::EnhancedAmfAllocator eamf;
  const core::PerSiteMaxMin psmf;
  const core::Allocator* policies[] = {&amf, &eamf, &psmf};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const int n = 3 + static_cast<int>(rng.uniform_index(10));
    const int m = 2 + static_cast<int>(rng.uniform_index(4));
    core::Matrix demands = random_demands(rng, n, m);
    std::vector<double> capacities(static_cast<std::size_t>(m));
    core::Matrix capacity_matrix(static_cast<std::size_t>(m));
    for (int s = 0; s < m; ++s) {
      capacities[static_cast<std::size_t>(s)] = rng.uniform(3.0, 9.0);
      capacity_matrix[static_cast<std::size_t>(s)] = {
          capacities[static_cast<std::size_t>(s)]};
    }
    const core::AllocationProblem scalar(demands, capacities);
    const core::AllocationProblem lifted = core::AllocationProblem::multi(
        demands, capacity_matrix,
        core::Matrix(static_cast<std::size_t>(n),
                     std::vector<double>{1.0}));
    ASSERT_TRUE(lifted.multi_resource());
    ASSERT_EQ(lifted.resources(), 1);
    for (const core::Allocator* policy : policies) {
      const core::Allocation a = policy->allocate(scalar);
      const core::Allocation b = policy->allocate(lifted);
      EXPECT_EQ(a.shares(), b.shares())
          << policy->name() << " diverged at seed " << seed;
    }
  }
}

TEST(R1Equiv, WorkspaceReplayBitIdenticalToScalarPath) {
  util::Rng rng(41);
  const int n = 7, m = 3;
  core::Matrix demands = random_demands(rng, n, m);
  std::vector<double> capacities = {6.0, 4.5, 8.0};
  core::Matrix capacity_matrix = {{6.0}, {4.5}, {8.0}};

  core::AllocationProblem scalar(demands, capacities);
  core::AllocationProblem lifted = core::AllocationProblem::multi(
      demands, capacity_matrix,
      core::Matrix(static_cast<std::size_t>(n), std::vector<double>{1.0}));

  const core::AmfAllocator amf;
  core::SolverWorkspace ws_scalar, ws_lifted;
  ws_scalar.prime(scalar);
  ws_lifted.prime(lifted);

  const auto step = [&](const core::ProblemDelta& ds,
                        const core::ProblemDelta& dl) {
    scalar = std::move(scalar).apply(ds);
    lifted = std::move(lifted).apply(dl);
    ws_scalar.apply(ds);
    ws_lifted.apply(dl);
    const core::Allocation a = amf.allocate(scalar, ws_scalar);
    const core::Allocation b = amf.allocate(lifted, ws_lifted);
    ASSERT_EQ(a.shares(), b.shares()) << "lifted R=1 replay diverged";
  };

  // The same edit expressed scalar-style and vector-style.
  step(core::ProblemDelta::demand_set(1, 2, 0.5),
       core::ProblemDelta::demand_set(1, 2, 0.5));
  step(core::ProblemDelta::site_capacity(0, 3.0),
       core::ProblemDelta::set_capacity_vec(0, {3.0}));
  step(core::ProblemDelta::job_arrived({1.0, 0.0, 2.0}),
       core::ProblemDelta::job_arrived({1.0, 0.0, 2.0}, {}, 1.0, {}, {1.0}));
  step(core::ProblemDelta::job_departed(2),
       core::ProblemDelta::job_departed(2));
  step(core::ProblemDelta::site_capacity(1, 7.5),
       core::ProblemDelta::set_capacity_vec(1, {7.5}));
}

/// Runs one request through a session and returns the parsed response.
svc::Json submit_and_wait(svc::Session* session, double id, svc::Op op,
                          svc::Json body) {
  svc::Request req;
  req.id = id;
  req.op = op;
  req.body = std::move(body);
  svc::Json response;
  bool got = false;
  std::mutex mu;
  std::condition_variable cv;
  session->submit(req, [&](std::string line) {
    std::lock_guard<std::mutex> lock(mu);
    response = svc::Json::parse(std::string(line.data(), line.size() - 1));
    got = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(30), [&] { return got; });
  EXPECT_TRUE(got) << "no response for id " << id;
  return response;
}

svc::Json add_job_body(const std::vector<double>& demands,
                       const std::vector<double>& profile = {}) {
  svc::Json body = svc::Json::object();
  body.set("demands", svc::to_json(demands));
  if (!profile.empty()) body.set("profile", svc::to_json(profile));
  return body;
}

TEST(R1Equiv, SvcResponsesBitIdenticalToScalarSession) {
  svc::SessionConfig cfg = svc::test_session_config();
  auto owned_scalar =
      svc::fresh_session("s", std::vector<double>{5.0, 4.0}, cfg);
  svc::Session& scalar = *owned_scalar;
  // Its R = 1 lift: a snapshot birth of the empty multi-resource problem
  // (a create record with resources 1 makes a scalar session).
  const core::Matrix nominal = {{5.0}, {4.0}};
  svc::Json empty = svc::problem_to_json(
      core::AllocationProblem::multi({}, nominal, {}), {5.0, 4.0}, {},
      &nominal);
  empty.set("session", svc::Json("s"));
  svc::Json birth = svc::Json::object();
  birth.set("t", svc::Json("snapshot"));
  birth.set("snapshot", std::move(empty));
  auto owned_lifted = svc::session_from_birth(birth, cfg);
  svc::Session& lifted = *owned_lifted;

  const auto both = [&](double id, svc::Op op, const svc::Json& body) {
    svc::Json a = submit_and_wait(&scalar, id, op, body);
    svc::Json b = submit_and_wait(&lifted, id, op, body);
    EXPECT_EQ(a.dump(), b.dump()) << "response diverged at id " << id;
    return a;
  };

  both(1, svc::Op::kAddJob, add_job_body({2.0, 1.0}));
  both(2, svc::Op::kAddJob, add_job_body({1.0, 3.0}));
  both(3, svc::Op::kSolve, svc::Json::object());
  {
    svc::Json ev = svc::Json::object();
    ev.set("site", svc::Json(0.0));
    ev.set("factor", svc::Json(0.5));
    both(4, svc::Op::kSiteEvent, ev);
  }
  both(5, svc::Op::kSolve, svc::Json::object());
  {
    svc::Json fin = svc::Json::object();
    fin.set("job", svc::Json(0.0));
    both(6, svc::Op::kFinishJob, fin);
  }
  svc::Json last = both(7, svc::Op::kSolve, svc::Json::object());
  EXPECT_TRUE(last.bool_or("ok", false));

  // Snapshots carry the additive multi fields on the lifted session, but
  // the shared scalar core (jobs, capacities, allocation) must agree.
  svc::Json snap_a = submit_and_wait(&scalar, 8, svc::Op::kSnapshot,
                                     svc::Json::object());
  svc::Json snap_b = submit_and_wait(&lifted, 8, svc::Op::kSnapshot,
                                     svc::Json::object());
  const svc::Json* a_snap = snap_a.find("snapshot");
  const svc::Json* b_snap = snap_b.find("snapshot");
  ASSERT_NE(a_snap, nullptr);
  ASSERT_NE(b_snap, nullptr);
  for (const char* key : {"capacities", "nominal"}) {
    ASSERT_NE(a_snap->find(key), nullptr) << key;
    ASSERT_NE(b_snap->find(key), nullptr) << key;
    EXPECT_EQ(a_snap->find(key)->dump(), b_snap->find(key)->dump()) << key;
  }
  // Jobs agree on the shared scalar fields; the lifted session adds the
  // additive per-job "profile" (unit at R=1), which scalar must not carry.
  const svc::Json* a_jobs = a_snap->find("jobs");
  const svc::Json* b_jobs = b_snap->find("jobs");
  ASSERT_NE(a_jobs, nullptr);
  ASSERT_NE(b_jobs, nullptr);
  ASSERT_EQ(a_jobs->as_array().size(), b_jobs->as_array().size());
  for (std::size_t j = 0; j < a_jobs->as_array().size(); ++j) {
    const svc::Json& ja = a_jobs->as_array()[j];
    const svc::Json& jb = b_jobs->as_array()[j];
    for (const char* key : {"id", "demands", "weight"}) {
      ASSERT_NE(ja.find(key), nullptr) << key;
      ASSERT_NE(jb.find(key), nullptr) << key;
      EXPECT_EQ(ja.find(key)->dump(), jb.find(key)->dump()) << key;
    }
    EXPECT_EQ(ja.find("profile"), nullptr);
    ASSERT_NE(jb.find("profile"), nullptr);
    EXPECT_EQ(jb.find("profile")->dump(), "[1]");
  }
  ASSERT_NE(a_snap->find("allocation"), nullptr);
  ASSERT_NE(b_snap->find("allocation"), nullptr);
  EXPECT_EQ(a_snap->find("allocation")->dump(),
            b_snap->find("allocation")->dump());
  // The lifted session declares its resource dimension; scalar does not.
  ASSERT_NE(b_snap->find("resources"), nullptr);
  EXPECT_EQ(b_snap->find("resources")->as_number(), 1.0);
  EXPECT_EQ(a_snap->find("resources"), nullptr);
  scalar.drain();
  lifted.drain();
}

// ---------------------------------------------------------------------
// MultiRes: R>1 behaviour.

// The lift multiplies raw rows by the profile's largest entry; finite
// inputs whose product overflows are rejected where they enter, naming
// the job row, before anything is mutated.
TEST(MultiResProblem, RejectsNonFiniteEffectiveRows) {
  const core::Matrix caps = {{10.0, 10.0}, {10.0, 10.0}};
  const core::AllocationProblem p =
      core::AllocationProblem::multi({{10.0, 0.0}, {0.0, 10.0}}, caps, {});
  core::SolverWorkspace ws;
  const core::AmfAllocator amf;
  const auto before = amf.allocate(p, ws);
  ASSERT_EQ(before.aggregate(0), 10.0);
  ASSERT_EQ(before.aggregate(1), 10.0);

  try {
    (void)core::AllocationProblem::multi({{1.0, 1.0}, {1e300, 1.0}}, caps,
                                         {{1.0, 1.0}, {1e10, 1.0}});
    ADD_FAILURE() << "overflowing effective demand accepted";
  } catch (const util::ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("(row 1)"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)core::AllocationProblem::multi(
                   {{1.0, 1.0}}, caps, {{1e10, 1.0}}, {{1e300, 0.0}}),
               util::ContractError);

  // apply(): an arrival with its profile, a demand set, a profile set and
  // a workload set.
  const auto arrival = core::ProblemDelta::job_arrived({1e300, 1.0}, {}, 1.0,
                                                       {}, {1e10, 1.0});
  EXPECT_THROW((void)p.apply(arrival), util::ContractError);
  const auto big = p.apply(core::ProblemDelta::job_arrived({1e300, 1.0}));
  EXPECT_THROW((void)big.apply(core::ProblemDelta::set_profile(2, {1e10, 1.0})),
               util::ContractError);
  const auto heavy = p.apply(core::ProblemDelta::set_profile(0, {1e10, 1.0}));
  EXPECT_THROW((void)heavy.apply(core::ProblemDelta::demand_set(0, 1, 1e300)),
               util::ContractError);
  const auto worked = core::AllocationProblem::multi(
      {{1.0, 1.0}}, caps, {{1e10, 1.0}}, {{1.0, 1.0}});
  EXPECT_THROW(
      (void)worked.apply(core::ProblemDelta::workload_set(0, 0, 1e300)),
      util::ContractError);

  // A rejected rvalue apply leaves its instance whole, and the warm
  // workspace keeps serving the same answer.
  core::AllocationProblem moved = p;
  EXPECT_THROW((void)std::move(moved).apply(arrival), util::ContractError);
  EXPECT_EQ(moved.jobs(), 2);
  EXPECT_EQ(moved.profiles().size(), 2u);
  EXPECT_EQ(moved.demands().entries.size(), 2u);
  const auto after = amf.allocate(moved, ws);
  EXPECT_EQ(after.aggregate(0), 10.0);
  EXPECT_EQ(after.aggregate(1), 10.0);
}

TEST(MultiResProblem, DeltasRecomputeBindingMinAndGamma) {
  core::AllocationProblem p = core::AllocationProblem::multi(
      {{2.0, 1.0}}, {{4.0, 8.0}, {6.0, 3.0}}, {{1.0, 0.5}});
  ASSERT_EQ(p.resources(), 2);
  // Binding minima: min(4,8)=4, min(6,3)=3.
  EXPECT_EQ(p.capacity(0), 4.0);
  EXPECT_EQ(p.capacity(1), 3.0);
  // gamma = max_r profile = 1.0, so effective demand == raw demand.
  EXPECT_EQ(p.demand(0, 0), 2.0);

  p = std::move(p).apply(core::ProblemDelta::set_capacity_vec(0, {9.0, 2.0}));
  EXPECT_EQ(p.capacity(0), 2.0);

  // Raising the profile raises gamma and thus effective demand.
  p = std::move(p).apply(core::ProblemDelta::set_profile(0, {2.0, 0.5}));
  EXPECT_EQ(p.demand(0, 0), 4.0);
  EXPECT_EQ(p.task_demand(0, 0), 2.0);

  // Scalar-only delta is rejected on a multi problem.
  EXPECT_THROW(std::move(p).apply(core::ProblemDelta::site_capacity(0, 1.0)),
               util::ContractError);
}

class MultiResWorkspaceTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiResWorkspaceTest, IncrementalMatchesFromScratch) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 977 + 13);
  const int n = 4 + static_cast<int>(rng.uniform_index(8));
  const int m = 2 + static_cast<int>(rng.uniform_index(4));
  const int r = 2 + static_cast<int>(rng.uniform_index(3));

  core::AllocationProblem p = core::AllocationProblem::multi(
      random_demands(rng, n, m), random_capacity_matrix(rng, m, r),
      random_profiles(rng, n, r));
  const core::AmfAllocator amf;
  core::SolverWorkspace ws;
  ws.prime(p);

  const auto check = [&] {
    const core::Allocation warm = amf.allocate(p, ws);
    const core::Allocation cold = amf.allocate(p);
    ASSERT_EQ(warm.shares(), cold.shares())
        << "incremental diverged from scratch at R=" << r;
  };
  check();
  for (int step = 0; step < 10; ++step) {
    core::ProblemDelta delta;
    switch (rng.uniform_index(5)) {
      case 0:
        delta = core::ProblemDelta::demand_set(
            static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(p.jobs()))),
            static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(m))),
            rng.uniform(0.0, 3.0));
        break;
      case 1: {
        std::vector<double> row(static_cast<std::size_t>(r));
        for (auto& v : row) v = rng.uniform(2.0, 12.0);
        delta = core::ProblemDelta::set_capacity_vec(
            static_cast<int>(rng.uniform_index(static_cast<std::size_t>(m))),
            std::move(row));
        break;
      }
      case 2: {
        std::vector<double> demands(static_cast<std::size_t>(m));
        for (auto& v : demands)
          v = rng.bernoulli(0.6) ? rng.uniform(0.25, 3.0) : 0.0;
        std::vector<double> profile(static_cast<std::size_t>(r));
        for (auto& v : profile) v = rng.uniform(0.3, 1.4);
        delta = core::ProblemDelta::job_arrived(std::move(demands), {}, 1.0,
                                                {}, std::move(profile));
        break;
      }
      case 3: {
        std::vector<double> profile(static_cast<std::size_t>(r));
        for (auto& v : profile) v = rng.uniform(0.3, 1.4);
        delta = core::ProblemDelta::set_profile(
            static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(p.jobs()))),
            std::move(profile));
        break;
      }
      default:
        if (p.jobs() <= 2) continue;
        delta = core::ProblemDelta::job_departed(static_cast<int>(
            rng.uniform_index(static_cast<std::size_t>(p.jobs()))));
        break;
    }
    p = std::move(p).apply(delta);
    ws.apply(delta);
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiResWorkspaceTest, ::testing::Range(0, 8));

TEST(MultiResTrace, SaveLoadRoundTrip) {
  workload::GeneratorConfig cfg;
  cfg.jobs = 12;
  cfg.sites = 4;
  cfg.resources = 3;
  cfg.seed = 5;
  workload::Generator generator(cfg);
  workload::Trace trace = workload::generate_trace(generator, 0.8, 12);
  ASSERT_TRUE(trace.multi_resource());
  ASSERT_EQ(trace.resources(), 3);

  // Add one uniform and one per-resource fault event.
  workload::SiteEvent uniform;
  uniform.time = 1.0;
  uniform.site = 0;
  uniform.capacity_factor = 0.5;
  trace.events.push_back(uniform);
  workload::SiteEvent vec;
  vec.time = 2.0;
  vec.site = 1;
  vec.capacity_factors = {1.0, 0.25, 0.75};
  vec.capacity_factor = 0.25;
  trace.events.push_back(vec);

  std::ostringstream first;
  workload::save_trace(trace, first);
  std::istringstream in(first.str());
  workload::Trace loaded = workload::load_trace(in);
  std::ostringstream second;
  workload::save_trace(loaded, second);
  EXPECT_EQ(first.str(), second.str());
  // The CSV carries %.12g (deliberately human-readable, not bit-exact),
  // so values compare through the format round-trip, not bitwise.
  ASSERT_EQ(loaded.capacity_matrix.size(), trace.capacity_matrix.size());
  for (std::size_t s = 0; s < loaded.capacity_matrix.size(); ++s)
    for (std::size_t r2 = 0; r2 < loaded.capacity_matrix[s].size(); ++r2)
      EXPECT_NEAR(loaded.capacity_matrix[s][r2],
                  trace.capacity_matrix[s][r2],
                  1e-9 * trace.capacity_matrix[s][r2]);
  ASSERT_EQ(loaded.capacities.size(), trace.capacities.size());
  for (std::size_t s = 0; s < loaded.capacities.size(); ++s)
    EXPECT_NEAR(loaded.capacities[s], trace.capacities[s],
                1e-9 * trace.capacities[s]);
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  EXPECT_EQ(loaded.events.back().capacity_factors,
            trace.events.back().capacity_factors);
}

TEST(MultiResTrace, ScalarFormatUnchanged) {
  workload::GeneratorConfig cfg;
  cfg.jobs = 5;
  cfg.sites = 3;
  cfg.seed = 5;
  workload::Generator generator(cfg);
  workload::Trace trace = workload::generate_trace(generator, 0.8, 5);
  EXPECT_FALSE(trace.multi_resource());
  std::ostringstream out;
  workload::save_trace(trace, out);
  // Pre-lift header: jobs,sites[,events] — never a fourth field at R=1.
  std::string header = out.str().substr(0, out.str().find('\n'));
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 2);
}

TEST(MultiResGenerator, DrawsValidMultiInstances) {
  workload::GeneratorConfig cfg;
  cfg.jobs = 20;
  cfg.sites = 5;
  cfg.resources = 4;
  cfg.seed = 9;
  workload::Generator generator(cfg);
  core::AllocationProblem p = generator.generate();
  ASSERT_TRUE(p.multi_resource());
  ASSERT_EQ(p.resources(), 4);
  EXPECT_EQ(p.jobs(), 20);
  EXPECT_EQ(p.sites(), 5);
  // Effective capacities mirror each row's binding minimum.
  for (int s = 0; s < p.sites(); ++s)
    EXPECT_EQ(p.capacity(s), flow::binding_min(p.capacity_matrix()
                                                   [static_cast<std::size_t>(
                                                       s)]));
  // Every profile row has R positive entries drawn from the config band.
  for (const auto& row : p.profiles()) {
    ASSERT_EQ(row.size(), 4u);
    for (double v : row) {
      EXPECT_GE(v, cfg.profile_min);
      EXPECT_LE(v, cfg.profile_max);
    }
  }
}

TEST(MultiResSim, IncrementalMatchesColdAtR2) {
  workload::GeneratorConfig cfg;
  cfg.jobs = 30;
  cfg.sites = 4;
  cfg.resources = 2;
  cfg.seed = 17;
  workload::Generator generator(cfg);
  workload::Trace trace = workload::generate_trace(generator, 0.9, 30);
  workload::FaultInjectorConfig fault_cfg;
  fault_cfg.mtbf = 30.0;
  fault_cfg.mttr = 5.0;
  fault_cfg.seed = 99;
  workload::FaultInjector injector(fault_cfg);
  injector.inject(trace);

  const core::AmfAllocator amf;
  sim::SimulatorConfig warm_cfg;
  warm_cfg.incremental = true;
  sim::SimulatorConfig cold_cfg;
  cold_cfg.incremental = false;
  sim::Simulator warm(amf, warm_cfg);
  sim::Simulator cold(amf, cold_cfg);
  const auto a = warm.run(trace);
  const auto b = cold.run(trace);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].completion, b[i].completion) << "job " << a[i].id;
    EXPECT_EQ(a[i].total_work, b[i].total_work) << "job " << a[i].id;
  }
  EXPECT_EQ(warm.stats().makespan, cold.stats().makespan);
  EXPECT_EQ(warm.stats().total_churn, cold.stats().total_churn);
}

TEST(MultiResSvc, JournalReplayMatchesUncrashedSession) {
  const std::string wal = test::fresh_path("multires_replay.wal");
  svc::SessionConfig cfg = svc::test_session_config();
  const core::Matrix nominal = {{10.0, 6.0}, {8.0, 8.0}};

  auto owned_live = svc::fresh_session("m", nominal, cfg);
  svc::Session& live = *owned_live;
  live.attach_journal(
      std::make_unique<svc::Journal>(wal, svc::FsyncPolicy::kAlways));
  submit_and_wait(&live, 1, svc::Op::kAddJob,
                  add_job_body({4.0, 2.0}, {1.0, 0.5}));
  submit_and_wait(&live, 2, svc::Op::kAddJob,
                  add_job_body({1.0, 5.0}, {0.25, 1.0}));
  {
    svc::Json ev = svc::Json::object();
    ev.set("site", svc::Json(0.0));
    ev.set("capacity_factors", svc::to_json({0.5, 1.0}));
    submit_and_wait(&live, 3, svc::Op::kSiteEvent, ev);
  }
  {
    svc::Json set = svc::Json::object();
    set.set("site", svc::Json(1.0));
    set.set("value", svc::to_json({9.0, 3.0}));
    submit_and_wait(&live, 4, svc::Op::kSetCapacity, set);
  }
  svc::Json solved = submit_and_wait(&live, 5, svc::Op::kSolve,
                                     svc::Json::object());
  ASSERT_TRUE(solved.bool_or("ok", false));
  live.drain();
  const std::string live_snapshot = live.snapshot_json_after_drain().dump();

  // A recovered session replays the journal through the live path, then
  // serves the same solve: state and snapshot must match exactly.
  auto owned_recovered = svc::fresh_session("m", nominal, cfg);
  svc::Session& recovered = *owned_recovered;
  const svc::JournalReplay replay = svc::Journal::read_all(wal);
  ASSERT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records.size(), 4u);
  for (const svc::JournalRecord& record : replay.records) {
    std::string error;
    ASSERT_TRUE(recovered.replay_journal_record(
        svc::Json::parse(record.payload), &error))
        << error;
  }
  svc::Json resolved = submit_and_wait(&recovered, 5, svc::Op::kSolve,
                                       svc::Json::object());
  EXPECT_EQ(resolved.find("allocation")->dump(),
            solved.find("allocation")->dump());
  recovered.drain();
  EXPECT_EQ(recovered.snapshot_json_after_drain().dump(), live_snapshot);
  std::remove(wal.c_str());
}

// Finite request numbers whose product overflows — a capacity factor
// times the nominal capacity, a demand times the profile's largest entry
// — get a typed bad_request at admission, and the session keeps serving.
TEST(MultiResSvc, RejectsOverflowingProductsAtAdmission) {
  const core::Matrix nominal = {{1e10, 1e10}, {5.0, 5.0}};
  auto owned = svc::fresh_session("m", nominal, svc::test_session_config());
  svc::Session& session = *owned;
  ASSERT_TRUE(submit_and_wait(&session, 1, svc::Op::kAddJob,
                              add_job_body({10.0, 0.0}))
                  .bool_or("ok", false));
  ASSERT_TRUE(submit_and_wait(&session, 2, svc::Op::kAddJob,
                              add_job_body({0.0, 5.0}))
                  .bool_or("ok", false));
  const std::string before =
      submit_and_wait(&session, 3, svc::Op::kSolve, svc::Json::object())
          .find("allocation")
          ->dump();

  auto expect_bad_request = [&](double id, svc::Op op, svc::Json body) {
    svc::Json response = submit_and_wait(&session, id, op, std::move(body));
    EXPECT_FALSE(response.bool_or("ok", true)) << response.dump();
    ASSERT_NE(response.find("error"), nullptr) << response.dump();
    EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_request");
  };
  expect_bad_request(4, svc::Op::kAddJob,
                     add_job_body({1e300, 1.0}, {1e10, 1.0}));
  svc::Json factors = svc::Json::object();
  factors.set("site", svc::Json(0.0));
  factors.set("capacity_factors", svc::to_json({1e300, 1.0}));
  expect_bad_request(5, svc::Op::kSiteEvent, std::move(factors));
  svc::Json factor = svc::Json::object();
  factor.set("site", svc::Json(0.0));
  factor.set("capacity_factor", svc::Json(1e300));
  expect_bad_request(6, svc::Op::kSiteEvent, std::move(factor));

  svc::Json solved =
      submit_and_wait(&session, 7, svc::Op::kSolve, svc::Json::object());
  ASSERT_TRUE(solved.bool_or("ok", false)) << solved.dump();
  EXPECT_EQ(solved.find("allocation")->dump(), before);
  session.drain();
}

TEST(MultiResSvc, ServerRecoversMultiSessionFromJournalDir) {
  const std::string dir = test::fresh_dir("multires_server_journal");
  std::string first_allocation;
  {
    svc::ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    svc::Server server(config);
    server.start();
    svc::Client client =
        svc::Client::connect_tcp("127.0.0.1", server.tcp_port());
    svc::Json create = svc::Json::object();
    create.set("resources", svc::Json(2.0));
    create.set("capacities", svc::matrix_to_json({{10.0, 6.0}, {8.0, 8.0}}));
    client.call(svc::Op::kCreateSession, "m", std::move(create));
    svc::Json job = add_job_body({4.0, 2.0}, {1.0, 0.5});
    client.call(svc::Op::kAddJob, "m", std::move(job));
    svc::Json job2 = add_job_body({1.0, 5.0}, {0.25, 1.0});
    client.call(svc::Op::kAddJob, "m", std::move(job2));
    first_allocation = client.solve("m").find("allocation")->dump();
    server.trigger_drain();
    server.wait_drained();
  }
  {
    svc::ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    svc::Server server(config);
    svc::RecoveryReport report = server.recover_from_journal();
    EXPECT_EQ(report.sessions, 1);
    server.start();
    svc::Client client =
        svc::Client::connect_tcp("127.0.0.1", server.tcp_port());
    EXPECT_EQ(client.solve("m").find("allocation")->dump(), first_allocation);
    server.trigger_drain();
    server.wait_drained();
  }
}

TEST(MultiResSvc, SnapshotCodecRoundTripsAtR2) {
  core::AllocationProblem p = core::AllocationProblem::multi(
      {{2.0, 1.0}, {0.5, 3.0}}, {{4.0, 8.0}, {6.0, 3.0}},
      {{1.0, 0.5}, {0.25, 1.0}}, {{4.0, 2.0}, {1.0, 6.0}});
  const core::Matrix nominal = {{4.0, 8.0}, {6.0, 3.0}};
  const std::vector<double> nominal_caps = {4.0, 3.0};
  const std::vector<long long> ids = {7, 9};
  svc::Json encoded = svc::problem_to_json(p, nominal_caps, ids, &nominal);
  svc::ProblemSnapshot decoded = svc::problem_from_json(encoded);
  EXPECT_TRUE(decoded.problem.multi_resource());
  EXPECT_EQ(decoded.problem.resources(), 2);
  EXPECT_EQ(decoded.problem.capacity_matrix(), p.capacity_matrix());
  EXPECT_EQ(decoded.problem.profiles(), p.profiles());
  EXPECT_EQ(test::dense_task_demands(decoded.problem),
            test::dense_task_demands(p));
  EXPECT_EQ(test::dense_task_workloads(decoded.problem),
            test::dense_task_workloads(p));
  EXPECT_EQ(decoded.nominal_matrix, nominal);
  EXPECT_EQ(decoded.job_ids, ids);
  // Bytes are stable through a second encode.
  EXPECT_EQ(svc::problem_to_json(decoded.problem, decoded.nominal_capacities,
                                 decoded.job_ids, &decoded.nominal_matrix)
                .dump(),
            encoded.dump());
}

}  // namespace
}  // namespace amf
