// Randomized equivalence suite for the incremental solve pipeline.
//
// The incremental engine's contract is exact replay, exercised here
// against the from-scratch path on randomized inputs: allocations,
// simulation records and run statistics are bit-for-bit identical to
// rebuilding the problem and the flow network at every event — across
// arrival/completion delta sequences, fault schedules, and replay budgets.
//
// Also covered: workspace reuse across RobustAllocator tier fallbacks —
// a network warmed under one tier must never leak into another tier's
// results, and returning to the primary tier must restore exactness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/persite.hpp"
#include "core/problem.hpp"
#include "oracle/oracle.hpp"
#include "core/robust.hpp"
#include "core/workspace.hpp"
#include "flow/parametric.hpp"
#include "flow/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/faults.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf {
namespace {

struct SimOutcome {
  std::vector<sim::JobRecord> records;
  sim::RunStats stats;
};

SimOutcome run_sim(const core::Allocator& policy, const workload::Trace& trace,
                   sim::SimulatorConfig cfg) {
  sim::Simulator simulator(policy, cfg);
  SimOutcome out;
  out.records = simulator.run(trace);
  out.stats = simulator.stats();
  return out;
}

/// Bit-for-bit comparison of two runs — the exact-replay contract.
void expect_bitwise(const SimOutcome& a, const SimOutcome& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_DOUBLE_EQ(a.records[i].completion, b.records[i].completion);
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_DOUBLE_EQ(a.stats.makespan, b.stats.makespan);
  EXPECT_DOUBLE_EQ(a.stats.avg_utilization, b.stats.avg_utilization);
  EXPECT_DOUBLE_EQ(a.stats.total_churn, b.stats.total_churn);
  EXPECT_DOUBLE_EQ(a.stats.aggregate_drift, b.stats.aggregate_drift);
  EXPECT_DOUBLE_EQ(a.stats.time_avg_jain, b.stats.time_avg_jain);
  EXPECT_EQ(a.stats.fault_events, b.stats.fault_events);
  EXPECT_DOUBLE_EQ(a.stats.work_lost, b.stats.work_lost);
  EXPECT_EQ(a.stats.recoveries, b.stats.recoveries);
  EXPECT_DOUBLE_EQ(a.stats.avail_utilization, b.stats.avail_utilization);
}

TEST(IncrementalEngine, BitwiseEqualAcrossRandomTraces) {
  core::AmfAllocator amf;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto cfg = workload::paper_default(0.8 + 0.2 * static_cast<double>(seed),
                                       900 + seed);
    workload::Generator gen(cfg);
    auto trace = workload::generate_trace(gen, 0.8, 45);
    sim::SimulatorConfig cold_cfg, inc_cfg;
    cold_cfg.incremental = false;
    inc_cfg.incremental = true;
    expect_bitwise(run_sim(amf, trace, cold_cfg), run_sim(amf, trace, inc_cfg));
  }
}

TEST(IncrementalEngine, BitwiseEqualUnderFaultSchedules) {
  core::AmfAllocator amf;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto cfg = workload::paper_default(1.1, 950 + seed);
    workload::Generator gen(cfg);
    auto trace = workload::generate_trace(gen, 0.9, 35);
    workload::FaultInjectorConfig fc;
    fc.mtbf = 40.0;
    fc.mttr = 6.0;
    fc.degrade_prob = 0.4;
    fc.seed = 77 + seed;
    workload::FaultInjector injector(fc);
    injector.inject(trace);
    ASSERT_TRUE(trace.has_faults());
    sim::SimulatorConfig cold_cfg, inc_cfg;
    cold_cfg.incremental = false;
    inc_cfg.incremental = true;
    expect_bitwise(run_sim(amf, trace, cold_cfg), run_sim(amf, trace, inc_cfg));
  }
}

TEST(IncrementalEngine, BitwiseEqualOnEventCappedPrefix) {
  // The replay budget must truncate both engines at the same point with
  // identical prefix statistics.
  core::AmfAllocator amf;
  auto cfg = workload::paper_default(1.0, 971);
  workload::Generator gen(cfg);
  auto trace = workload::generate_trace(gen, 0.9, 60);
  sim::SimulatorConfig cold_cfg, inc_cfg;
  cold_cfg.incremental = false;
  cold_cfg.max_events = 40;
  inc_cfg.incremental = true;
  inc_cfg.max_events = 40;
  auto cold = run_sim(amf, trace, cold_cfg);
  auto inc = run_sim(amf, trace, inc_cfg);
  EXPECT_EQ(cold.stats.events, 40);
  expect_bitwise(cold, inc);
}

// ---------------------------------------------------------------------------
// Allocator-level delta sequences: one problem + one workspace mutated by
// random arrival / departure / drain / capacity deltas, checked against a
// stateless solve of the identical instance after every step.

core::AllocationProblem random_problem(std::mt19937_64& rng, int jobs,
                                       int sites) {
  std::uniform_int_distribution<int> fanout(2, 4);
  std::uniform_int_distribution<int> site_pick(0, sites - 1);
  std::uniform_real_distribution<double> demand(1.0, 8.0);
  std::uniform_real_distribution<double> capacity(6.0, 16.0);
  core::Matrix demands(static_cast<std::size_t>(jobs),
                       std::vector<double>(static_cast<std::size_t>(sites)));
  for (auto& row : demands) {
    int k = fanout(rng);
    for (int i = 0; i < k; ++i)
      row[static_cast<std::size_t>(site_pick(rng))] = demand(rng);
  }
  std::vector<double> caps(static_cast<std::size_t>(sites));
  for (auto& c : caps) c = capacity(rng);
  return core::AllocationProblem(std::move(demands), std::move(caps));
}

/// One random structural or numeric delta against the current problem.
core::ProblemDelta random_delta(std::mt19937_64& rng,
                                const core::AllocationProblem& problem) {
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int n = problem.jobs();
  const int m = problem.sites();
  switch (kind(rng)) {
    case 0: {  // arrival
      std::uniform_int_distribution<int> site_pick(0, m - 1);
      std::uniform_real_distribution<double> demand(1.0, 8.0);
      std::vector<double> row(static_cast<std::size_t>(m), 0.0);
      int k = 2 + kind(rng) % 3;
      for (int i = 0; i < k; ++i)
        row[static_cast<std::size_t>(site_pick(rng))] = demand(rng);
      return core::ProblemDelta::job_arrived(row, {}, 1.0, row);
    }
    case 1: {  // departure
      if (n <= 3) return random_delta(rng, problem);
      std::uniform_int_distribution<int> job_pick(0, n - 1);
      return core::ProblemDelta::job_departed(job_pick(rng));
    }
    case 2: {  // site capacity rescale (fault / recovery)
      std::uniform_int_distribution<int> site_pick(0, m - 1);
      int s = site_pick(rng);
      double factor = 0.3 + 1.2 * unit(rng);
      return core::ProblemDelta::site_capacity(
          s, factor * problem.capacities()[static_cast<std::size_t>(s)]);
    }
    default: {  // demand drain on an existing positive arc
      std::uniform_int_distribution<int> job_pick(0, n - 1);
      for (int tries = 0; tries < 32; ++tries) {
        int j = job_pick(rng);
        const auto& row = problem.demands()[static_cast<std::size_t>(j)];
        for (int s = 0; s < m; ++s) {
          if (row[static_cast<std::size_t>(s)] > 0.0) {
            return core::ProblemDelta::demand_set(
                j, s, unit(rng) * row[static_cast<std::size_t>(s)]);
          }
        }
      }
      return random_delta(rng, problem);
    }
  }
}

TEST(WorkspaceDeltas, ExactRealizationMatchesStatelessBitwise) {
  core::AmfAllocator amf;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    std::mt19937_64 rng(1234 + seed);
    auto problem = random_problem(rng, 14, 6);
    core::SolverWorkspace ws;
    for (int step = 0; step < 25; ++step) {
      auto warm = amf.allocate(problem, ws);
      auto cold = amf.allocate(problem);
      ASSERT_EQ(warm.jobs(), cold.jobs());
      for (int j = 0; j < warm.jobs(); ++j)
        for (int s = 0; s < warm.sites(); ++s)
          EXPECT_DOUBLE_EQ(warm.share(j, s), cold.share(j, s))
              << "seed " << seed << " step " << step << " job " << j
              << " site " << s;
      auto delta = random_delta(rng, problem);
      problem = std::move(problem).apply(delta);
      ws.apply(delta);
    }
  }
}

// ---------------------------------------------------------------------------
// RobustAllocator tier fallback: the workspace must not leak warm state
// across tiers, and must warm-start correctly again once a tier settles.

/// Delegates to AMF, but throws InternalError while `armed` is set — the
/// switch that forces RobustAllocator onto its fallback tiers on demand.
class FlakyPrimary final : public core::Allocator {
 public:
  explicit FlakyPrimary(const bool* armed) : armed_(armed) {}

  core::Allocation allocate(
      const core::AllocationProblem& problem) const override {
    if (*armed_) throw util::InternalError("synthetic primary failure");
    return amf_.allocate(problem);
  }
  core::Allocation allocate(const core::AllocationProblem& problem,
                            core::SolverWorkspace& workspace) const override {
    if (*armed_) throw util::InternalError("synthetic primary failure");
    return amf_.allocate(problem, workspace);
  }
  std::string name() const override { return "flaky-amf"; }

 private:
  const bool* armed_;
  core::AmfAllocator amf_;
};

TEST(RobustWorkspace, TierFallbackInvalidatesAndRecoversWarmState) {
  std::mt19937_64 rng(777);
  auto problem = random_problem(rng, 12, 5);
  bool armed = false;
  FlakyPrimary primary(&armed);
  core::RobustAllocator robust(primary);
  core::AmfAllocator amf;
  core::SolverWorkspace ws;

  auto expect_matches_stateless = [&](const core::Allocation& got,
                                      const core::Allocator& reference) {
    auto want = reference.allocate(problem);
    ASSERT_EQ(got.jobs(), want.jobs());
    for (int j = 0; j < got.jobs(); ++j)
      for (int s = 0; s < got.sites(); ++s)
        EXPECT_EQ(got.share(j, s), want.share(j, s));
  };

  // Healthy primary: warm path, bit-identical to stateless AMF.
  expect_matches_stateless(robust.allocate(problem, ws), amf);
  EXPECT_EQ(robust.fallback_stats().last, core::FallbackTier::kPrimary);

  // Mutate, then fail the primary: the per-site tier serves, and its
  // result must match a stateless per-site solve — any warm state primed
  // under the primary must not bleed through.
  auto delta = random_delta(rng, problem);
  problem = std::move(problem).apply(delta);
  ws.apply(delta);
  armed = true;
  expect_matches_stateless(robust.allocate(problem, ws), core::PerSiteMaxMin());
  EXPECT_EQ(robust.fallback_stats().last, core::FallbackTier::kPerSite);

  // Primary heals: the chain returns to tier 0 and must again be
  // bit-identical to stateless AMF despite the tier bounce in between.
  armed = false;
  expect_matches_stateless(robust.allocate(problem, ws), amf);
  EXPECT_EQ(robust.fallback_stats().last, core::FallbackTier::kPrimary);

  // And the re-primed workspace keeps warm-serving correctly under
  // further deltas.
  for (int step = 0; step < 5; ++step) {
    auto d = random_delta(rng, problem);
    problem = std::move(problem).apply(d);
    ws.apply(d);
    expect_matches_stateless(robust.allocate(problem, ws), amf);
  }
}

// ---------------------------------------------------------------------------
// Flow-layer work pins. Counts are process-wide obs counters, read as
// deltas around the calls under test. Instances draw from util::Rng (not
// <random> distributions), so the pinned values do not depend on the
// standard library.

long long counter(const char* name) {
  return obs::Registry::global().snapshot().counter(name);
}

struct DinicWork {
  long long calls = 0;
  long long phases = 0;
  long long paths = 0;
};

DinicWork dinic_work() {
  return {counter("amf_flow_maxflow_calls"),
          counter("amf_flow_maxflow_phases"),
          counter("amf_flow_augmenting_paths")};
}

void add_work_since(const DinicWork& before, DinicWork& total) {
  const DinicWork now = dinic_work();
  total.calls += now.calls - before.calls;
  total.phases += now.phases - before.phases;
  total.paths += now.paths - before.paths;
}

std::vector<double> sparse_row(util::Rng& rng, int sites) {
  std::vector<double> row(static_cast<std::size_t>(sites), 0.0);
  const auto fanout = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < fanout; ++i)
    row[rng.uniform_index(static_cast<std::uint64_t>(sites))] =
        rng.uniform(0.5, 8.0);
  return row;
}

core::AllocationProblem pinned_problem(util::Rng& rng, int jobs, int sites) {
  core::Matrix demands;
  for (int j = 0; j < jobs; ++j) demands.push_back(sparse_row(rng, sites));
  std::vector<double> caps(static_cast<std::size_t>(sites));
  for (auto& c : caps) c = rng.uniform(4.0, 24.0);
  return core::AllocationProblem(std::move(demands), std::move(caps));
}

/// The paper's headline setting: every job may use each of its 1-3 sites
/// up to the site's whole capacity.
core::AllocationProblem uncapped_problem(util::Rng& rng, int jobs, int sites) {
  std::vector<double> caps(static_cast<std::size_t>(sites));
  for (auto& c : caps) c = rng.uniform(4.0, 24.0);
  core::Matrix demands;
  for (int j = 0; j < jobs; ++j) {
    std::vector<double> row(static_cast<std::size_t>(sites), 0.0);
    const auto fanout = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < fanout; ++i) {
      const auto s = rng.uniform_index(static_cast<std::uint64_t>(sites));
      row[s] = caps[s];
    }
    demands.push_back(std::move(row));
  }
  return core::AllocationProblem(std::move(demands), std::move(caps));
}

/// Churn: ~45% arrivals, ~45% departures, ~10% site capacity changes.
core::ProblemDelta pinned_delta(util::Rng& rng,
                                const core::AllocationProblem& problem) {
  const double u = rng.uniform();
  if (u < 0.1) {
    const auto s =
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(
            problem.sites())));
    return core::ProblemDelta::site_capacity(s, rng.uniform(4.0, 16.0));
  }
  if (u < 0.55 || problem.jobs() <= 4) {
    auto row = sparse_row(rng, problem.sites());
    return core::ProblemDelta::job_arrived(row, {}, 1.0, row);
  }
  return core::ProblemDelta::job_departed(static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(problem.jobs()))));
}

void expect_bit_identical(const core::Allocation& got,
                          const core::Allocation& want, int step) {
  ASSERT_EQ(got.jobs(), want.jobs()) << "step " << step;
  for (int j = 0; j < got.jobs(); ++j)
    for (int s = 0; s < got.sites(); ++s)
      EXPECT_EQ(got.share(j, s), want.share(j, s))
          << "step " << step << " job " << j << " site " << s;
}

// Phases and augmenting paths depend on the per-node arc order, so a
// kernel change that reorders traversal moves these counts. The number of
// max flows follows the cut-Newton descent, which starts every round at
// the tightest job cut (or at the global cut's level, when lower) and
// gallops over runs of demand-bound rounds. This
// instance has two runs of two such rounds; a gallop spends one probe more
// on each than two one-round solves would (b_1, b_2, b_4, b_3 instead of
// b_1, b_2, b_3).
TEST(DinicWorkPin, StatelessSolve) {
  util::Rng rng(2019);
  const auto problem = pinned_problem(rng, 16, 10);
  core::AmfAllocator amf;
  const DinicWork before = dinic_work();
  amf.allocate(problem);
  DinicWork work;
  add_work_since(before, work);
  EXPECT_EQ(work.calls, 21);
  EXPECT_EQ(work.phases, 38);
  EXPECT_EQ(work.paths, 576);
}

// One freeze round, uncapped demands: the global cut binds, so cut-Newton
// runs one cold probe at its level and the closure certificate accepts it
// with no further max flow. That probe is feasible at exactly the frozen
// aggregates, so the final materialization is served from the flow it
// left on the network.
TEST(DinicWorkPin, OneRoundStatelessSolveMaterializesFromLastProbe) {
  util::Rng rng(2);
  const auto problem = uncapped_problem(rng, 16, 4);
  core::AmfAllocator amf;
  core::SolveReport report;
  const DinicWork before = dinic_work();
  const long long hits_before = counter("amf_flow_memo_hits");
  amf.allocate_with_report(problem, report);
  DinicWork work;
  add_work_since(before, work);
  EXPECT_EQ(report.trace.rounds, 1);
  EXPECT_EQ(work.calls, 1);
  EXPECT_EQ(counter("amf_flow_memo_hits") - hits_before, 1);
}

TEST(DinicWorkPin, WarmIncrementalChurn) {
  util::Rng rng(1905);
  auto problem = pinned_problem(rng, 20, 8);
  core::AmfAllocator amf;
  core::SolverWorkspace ws;
  DinicWork work;
  for (int step = 0; step < 40; ++step) {
    const DinicWork before = dinic_work();
    const auto warm = amf.allocate(problem, ws);
    add_work_since(before, work);
    expect_bit_identical(warm, amf.allocate(problem), step);
    const auto delta = pinned_delta(rng, problem);
    problem = std::move(problem).apply(delta);
    ws.apply(delta);
  }
  EXPECT_EQ(work.calls, 393);
  EXPECT_EQ(work.phases, 397);
  EXPECT_EQ(work.paths, 2555);
}

// Every job is limited by its own demand, at a distinct level: one run of
// n demand-bound rounds. A level solve without a gallop state stops at the
// first job cut after one max flow; with one it gallops to the last job
// cut, and the fill freezes every job exactly at its solo ceiling in its
// own round, in at most 2⌈log₂ n⌉ + 2 probes instead of n. The flow-work
// counters put those probes on the gallop, and a round a site binds on
// the site-bound count.
TEST(DinicWorkPin, DemandBoundRunTakesLogarithmicProbes) {
  constexpr int kJobs = 24;
  constexpr int kMaxProbes = 2 * 5 + 2;  // 2⌈log₂ 24⌉ + 2
  core::Matrix demands;
  std::vector<double> weights;
  for (int j = 0; j < kJobs; ++j) {
    demands.push_back({1.0 + j, 0.5 * (1.0 + j)});
    weights.push_back(1.0 + 0.25 * j);  // ceiling/weight rises with j
  }
  const core::AllocationProblem problem(demands, {1000.0, 1000.0}, {},
                                        weights);

  flow::TransportNetwork net(problem.demands(), problem.capacities());
  std::vector<flow::ParametricSource> sources;
  for (double w : weights) sources.push_back({0.0, w});
  flow::LevelSolveStats one_round;
  const auto first = flow::solve_critical_level(
      net, sources, 0.0, 100.0, 1e-9, flow::LevelMethod::kCutNewton,
      &one_round);
  EXPECT_EQ(one_round.flow_solves, 1);
  EXPECT_EQ(first.level, net.solo_ceiling(0) / weights[0]);
  EXPECT_FALSE(first.can_increase[0]);
  for (int j = 1; j < kJobs; ++j) EXPECT_TRUE(first.can_increase[j]);

  flow::LevelSolveStats galloped;
  flow::GallopState gallop;
  const auto run = flow::solve_critical_level(
      net, sources, 0.0, 100.0, 1e-9, flow::LevelMethod::kCutNewton,
      &galloped, &gallop);
  EXPECT_LE(galloped.flow_solves, kMaxProbes);
  EXPECT_EQ(run.level, net.solo_ceiling(kJobs - 1) / weights[kJobs - 1]);
  EXPECT_FALSE(run.segment_exhausted);
  EXPECT_FALSE(gallop.cut_valid);  // the run ended at the last job cut
  for (int j = 0; j < kJobs; ++j) EXPECT_FALSE(run.can_increase[j]);

  core::AmfAllocator amf;
  core::SolveReport report;
  const long long probes = counter("amf_flow_probes");
  const long long hits = counter("amf_flow_job_cut_hits");
  const long long solves = counter("amf_flow_level_solves");
  const long long gallop_probes = counter("amf_flow_gallop_probes");
  const long long site_bound = counter("amf_flow_site_bound_rounds");
  const auto alloc = amf.allocate_with_report(problem, report);
  EXPECT_EQ(report.trace.rounds, kJobs);
  EXPECT_LE(counter("amf_flow_probes") - probes, kMaxProbes);
  EXPECT_EQ(counter("amf_flow_level_solves") - solves, 1);
  EXPECT_EQ(counter("amf_flow_job_cut_hits") - hits, kJobs);
  // One probe opens the run at the first job cut; the gallop makes the
  // rest, and no round is site-bound.
  EXPECT_EQ(counter("amf_flow_gallop_probes") - gallop_probes,
            counter("amf_flow_probes") - probes - 1);
  EXPECT_EQ(counter("amf_flow_site_bound_rounds"), site_bound);
  for (int j = 0; j < kJobs; ++j) {
    const double ceiling = 1.5 * (1.0 + j);
    EXPECT_EQ(report.trace.freeze_round[static_cast<std::size_t>(j)], j + 1);
    EXPECT_DOUBLE_EQ(report.trace.freeze_level[static_cast<std::size_t>(j)],
                     ceiling / weights[static_cast<std::size_t>(j)]);
    EXPECT_DOUBLE_EQ(alloc.aggregate(j), ceiling);
  }

  // Three jobs that could each take 3 share one site of 3: the probe at
  // the job cut is infeasible and the site binds at level 1, in one
  // site-bound round with no gallop.
  const core::AllocationProblem shared({{5.0}, {5.0}, {5.0}}, {3.0});
  const long long shared_gallop = counter("amf_flow_gallop_probes");
  const long long shared_bound = counter("amf_flow_site_bound_rounds");
  const auto even = amf.allocate(shared);
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(even.aggregate(j), 1.0);
  EXPECT_EQ(counter("amf_flow_site_bound_rounds") - shared_bound, 1);
  EXPECT_EQ(counter("amf_flow_gallop_probes"), shared_gallop);
}

// The cut-Newton descent as it ran when every round started at the
// segment end t_hi. Returns the number of max flows it takes to reach the
// critical level; the level solver, which starts at the tightest job cut,
// must never need more.
int probes_from_segment_end(flow::TransportNetwork& net,
                            const std::vector<flow::ParametricSource>& sources,
                            double t_lo, double t_hi, double eps) {
  const double t_tol = eps * std::max({1.0, std::abs(t_hi), std::abs(t_lo)});
  double slope_total = 0.0, fixed_total = 0.0;
  for (const auto& src : sources) {
    slope_total += src.slope;
    fixed_total += src.fixed;
  }
  std::vector<double> caps(sources.size());
  int probes = 0;
  auto feasible_at = [&](double t) {
    for (std::size_t j = 0; j < sources.size(); ++j)
      caps[j] = std::max(0.0, sources[j].fixed + sources[j].slope * t);
    net.probe(caps, eps);
    ++probes;
    return net.saturated(eps);
  };
  double t = t_hi;
  for (int iter = 0; iter < 64; ++iter) {
    if (feasible_at(t)) return probes;
    const auto cut = net.min_cut(eps);
    double cut_slope = 0.0, cut_fixed = 0.0;
    for (int j = 0; j < net.jobs(); ++j) {
      if (!cut.job_in_source_side[static_cast<std::size_t>(j)]) {
        cut_slope += sources[static_cast<std::size_t>(j)].slope;
        cut_fixed += sources[static_cast<std::size_t>(j)].fixed;
      } else {
        net.add_row_demand_across(j, cut.site_in_source_side, cut_fixed);
      }
    }
    for (int s = 0; s < net.sites(); ++s)
      if (cut.site_in_source_side[static_cast<std::size_t>(s)])
        cut_fixed += net.site_capacity(s);
    const double dslope = slope_total - cut_slope;
    double t_new = 0.5 * (t_lo + t);
    if (dslope > eps * std::max(1.0, slope_total)) {
      const double newton = (cut_fixed - fixed_total) / dslope;
      if (newton < t - t_tol) t_new = newton;
    }
    t = std::clamp(t_new, t_lo, t);
    if (t - t_lo <= t_tol) return probes + 1;
  }
  return 1000;  // Newton budget exhausted: bisection would follow
}

core::AllocationProblem weighted_problem(util::Rng& rng, int jobs,
                                         int sites) {
  const auto base = pinned_problem(rng, jobs, sites);
  std::vector<double> weights(static_cast<std::size_t>(jobs));
  for (auto& w : weights) w = rng.uniform(0.5, 3.0);
  return core::AllocationProblem(test::dense_demands(base),
                                 base.capacities(), {}, weights);
}

// Fill rounds driven by hand on random instances, with affine sources that
// carry positive fixed parts (half of each job's equal-split floor, so the
// segment start is feasible). Every round's level matches the descent
// from the segment end, in at most as many max flows.
TEST(JobCutStart, NeverProbesMoreThanTheSegmentEndStart) {
  util::Rng rng(4242);
  long long job_cut = 0, segment_end = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto problem = weighted_problem(rng, 10, 5);
    const bool fixed_parts = trial % 2 == 1;
    const auto floors = core::EnhancedAmfAllocator::sharing_floors(problem);
    const int n = problem.jobs();
    flow::TransportNetwork net(problem.demands(), problem.capacities());
    flow::TransportNetwork ref(problem.demands(), problem.capacities());
    double t_hi = 1.0 + net.scale();
    for (int j = 0; j < n; ++j)
      t_hi = std::max(t_hi, net.solo_ceiling(j) / problem.weight(j) + 1.0);
    std::vector<flow::ParametricSource> sources(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      sources[static_cast<std::size_t>(j)] = {
          fixed_parts ? 0.5 * floors[static_cast<std::size_t>(j)] : 0.0,
          problem.weight(j)};
    double level = 0.0;
    for (int round = 1; round <= n; ++round) {
      flow::LevelSolveStats stats;
      const auto res = flow::solve_critical_level(
          net, sources, level, t_hi, 1e-9, flow::LevelMethod::kCutNewton,
          &stats);
      ASSERT_EQ(res.status, flow::LevelStatus::kConverged);
      const int parent = probes_from_segment_end(ref, sources, level, t_hi,
                                                 1e-9);
      EXPECT_LE(stats.flow_solves, parent)
          << "trial " << trial << " round " << round;
      job_cut += stats.flow_solves;
      segment_end += parent;
      level = res.level;
      int unfrozen = 0;
      for (int j = 0; j < n; ++j) {
        auto& src = sources[static_cast<std::size_t>(j)];
        if (src.slope > 0.0 && !res.can_increase[static_cast<std::size_t>(j)])
          src = {src.fixed + src.slope * level, 0.0};
        unfrozen += src.slope > 0.0 ? 1 : 0;
      }
      if (unfrozen == 0 || res.segment_exhausted) break;
    }
  }
  EXPECT_LT(job_cut, segment_end);
}

// The job-cut start leaves every result where it was: AMF, E-AMF's floored
// fill and the warm workspace under deltas all agree with a bisection
// solve, and AMF with the LP leximin oracle.
TEST(JobCutStart, AggregatesMatchBisectionAndLp) {
  util::Rng rng(777);
  const core::AmfAllocator amf;
  const core::AmfAllocator bisection(1e-9, flow::LevelMethod::kBisection);
  for (int trial = 0; trial < 12; ++trial) {
    auto problem = weighted_problem(rng, 8, 4);
    const double tol = 1e-6 * problem.scale();

    const auto newton = amf.allocate(problem);
    const auto bisect = bisection.allocate(problem);
    const auto lp = oracle::lp_max_min_aggregates(problem);
    for (int j = 0; j < problem.jobs(); ++j) {
      EXPECT_NEAR(newton.aggregate(j), bisect.aggregate(j), tol)
          << "trial " << trial << " job " << j;
      EXPECT_NEAR(newton.aggregate(j), lp[static_cast<std::size_t>(j)],
                  1e-4 * problem.scale())
          << "trial " << trial << " job " << j;
    }

    const auto floors = core::EnhancedAmfAllocator::sharing_floors(problem);
    const auto e_newton = core::progressive_fill(problem, floors, "E-AMF",
                                                 1e-9);
    const auto e_bisect = core::progressive_fill(
        problem, floors, "E-AMF", 1e-9, flow::LevelMethod::kBisection);
    for (int j = 0; j < problem.jobs(); ++j) {
      EXPECT_NEAR(e_newton.aggregate(j), e_bisect.aggregate(j), tol)
          << "trial " << trial << " job " << j;
      EXPECT_GE(e_newton.aggregate(j),
                floors[static_cast<std::size_t>(j)] - tol);
    }

    core::SolverWorkspace ws;
    for (int step = 0; step < 6; ++step) {
      const auto warm = amf.allocate(problem, ws);
      const auto want = bisection.allocate(problem);
      const auto want_lp = oracle::lp_max_min_aggregates(problem);
      for (int j = 0; j < problem.jobs(); ++j) {
        EXPECT_NEAR(warm.aggregate(j), want.aggregate(j),
                    1e-6 * problem.scale())
            << "trial " << trial << " step " << step << " job " << j;
        EXPECT_NEAR(warm.aggregate(j), want_lp[static_cast<std::size_t>(j)],
                    1e-4 * problem.scale())
            << "trial " << trial << " step " << step << " job " << j;
      }
      const auto delta = pinned_delta(rng, problem);
      problem = std::move(problem).apply(delta);
      ws.apply(delta);
    }
  }
}

// The cut-Newton descent as it ran when every round started at its
// tightest job cut, without a gallop: the reference the global-cut start
// must reproduce bit for bit. Counts its max flows in `probes`.
flow::CriticalLevel job_cut_descent(
    flow::TransportNetwork& net,
    const std::vector<flow::ParametricSource>& sources, double t_lo,
    double t_hi, double eps, int& probes) {
  const double t_tol = eps * std::max({1.0, std::abs(t_hi), std::abs(t_lo)});
  double slope_total = 0.0, fixed_total = 0.0;
  for (const auto& src : sources) {
    slope_total += src.slope;
    fixed_total += src.fixed;
  }
  std::vector<double> caps(sources.size());
  auto feasible_at = [&](double t) {
    for (std::size_t j = 0; j < sources.size(); ++j)
      caps[j] = std::max(0.0, sources[j].fixed + sources[j].slope * t);
    net.probe(caps, eps);
    ++probes;
    return net.saturated(eps);
  };
  double t = t_hi;
  for (int j = 0; j < net.jobs(); ++j) {
    const double t_j =
        flow::job_cut_level(net, sources[static_cast<std::size_t>(j)], j);
    if (t_j < t) t = std::max(t_j, t_lo);
  }
  flow::CriticalLevel result;
  for (int iter = 0;; ++iter) {
    if (iter == 64) {
      result.status = flow::LevelStatus::kIterationCapped;
      break;
    }
    if (feasible_at(t)) break;
    const auto cut = net.min_cut(eps);
    double cut_slope = 0.0, cut_fixed = 0.0;
    for (int j = 0; j < net.jobs(); ++j) {
      if (!cut.job_in_source_side[static_cast<std::size_t>(j)]) {
        cut_slope += sources[static_cast<std::size_t>(j)].slope;
        cut_fixed += sources[static_cast<std::size_t>(j)].fixed;
      } else {
        net.add_row_demand_across(j, cut.site_in_source_side, cut_fixed);
      }
    }
    for (int s = 0; s < net.sites(); ++s)
      if (cut.site_in_source_side[static_cast<std::size_t>(s)])
        cut_fixed += net.site_capacity(s);
    const double dslope = slope_total - cut_slope;
    double t_new = 0.5 * (t_lo + t);
    if (dslope > eps * std::max(1.0, slope_total)) {
      const double newton = (cut_fixed - fixed_total) / dslope;
      if (newton < t - t_tol) t_new = newton;
    }
    t = std::clamp(t_new, t_lo, t);
    if (t - t_lo <= t_tol) {
      t = t_lo;
      if (!feasible_at(t)) result.status = flow::LevelStatus::kDegenerate;
      break;
    }
  }
  result.level = t;
  result.segment_exhausted = t >= t_hi - t_tol;
  result.can_increase = net.jobs_can_increase(16.0 * eps);
  return result;
}

struct DescentTally {
  int rounds = 0;
  long long probes = 0;      // solve_critical_level's max flows
  long long ref_probes = 0;  // the job-cut descent's
};

// Progressive filling with `floors` (E-AMF's segments between floor
// breakpoints; all-zero floors give AMF's single segment), driven by hand
// without a gallop. Every round solves its level on `net` with
// solve_critical_level and on `ref` with the job-cut descent, and the two
// must agree bit for bit on the level and on can_increase.
void expect_fill_matches_job_cut_descent(flow::TransportNetwork& net,
                                         flow::TransportNetwork& ref,
                                         const core::AllocationProblem& problem,
                                         const std::vector<double>& floors,
                                         DescentTally& tally,
                                         const std::string& label) {
  constexpr double kEps = 1e-9;
  const int n = problem.jobs();
  const double tol = kEps * net.scale();
  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<double> value(static_cast<std::size_t>(n), 0.0);
  int unfrozen = n;
  double t_ub = 1.0 + net.scale();
  for (int j = 0; j < n; ++j) {
    if (net.solo_ceiling(j) <= tol) {
      frozen[static_cast<std::size_t>(j)] = 1;
      --unfrozen;
    }
    t_ub = std::max(t_ub, net.solo_ceiling(j) / problem.weight(j) + 1.0);
  }
  std::set<double> bounds_set{0.0, t_ub};
  for (int j = 0; j < n; ++j) {
    const double b = floors[static_cast<std::size_t>(j)] / problem.weight(j);
    if (!frozen[static_cast<std::size_t>(j)] && b > tol && b < t_ub)
      bounds_set.insert(b);
  }
  const std::vector<double> bounds(bounds_set.begin(), bounds_set.end());
  std::vector<flow::ParametricSource> sources(static_cast<std::size_t>(n));
  double level = 0.0;
  std::size_t seg = 0;
  for (int round = 1; unfrozen > 0 && seg + 1 < bounds.size(); ++round) {
    const double seg_end = bounds[seg + 1];
    const double t_lo = std::max(level, bounds[seg]);
    for (int j = 0; j < n; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const double w = problem.weight(j);
      if (frozen[jj])
        sources[jj] = {value[jj], 0.0, 0.0, true};
      else if (floors[jj] >= w * seg_end - kEps * std::max(1.0, seg_end))
        sources[jj] = {floors[jj], 0.0};
      else
        sources[jj] = {0.0, w, floors[jj]};
    }
    flow::LevelSolveStats stats;
    const auto got = flow::solve_critical_level(net, sources, t_lo, seg_end,
                                                kEps,
                                                flow::LevelMethod::kCutNewton,
                                                &stats);
    int ref_probes = 0;
    const auto want =
        job_cut_descent(ref, sources, t_lo, seg_end, kEps, ref_probes);
    ASSERT_EQ(got.status, want.status) << label << " round " << round;
    ASSERT_EQ(got.level, want.level) << label << " round " << round;
    ASSERT_EQ(got.can_increase, want.can_increase)
        << label << " round " << round;
    ASSERT_EQ(got.segment_exhausted, want.segment_exhausted)
        << label << " round " << round;
    ++tally.rounds;
    tally.probes += stats.flow_solves;
    tally.ref_probes += ref_probes;
    level = got.level;
    if (got.segment_exhausted) {
      ++seg;
      continue;
    }
    std::vector<int> stopped;
    for (int j = 0; j < n; ++j)
      if (!frozen[static_cast<std::size_t>(j)] &&
          !got.can_increase[static_cast<std::size_t>(j)])
        stopped.push_back(j);
    if (stopped.empty())
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)]) stopped.push_back(j);
    for (int j : stopped) {
      const auto jj = static_cast<std::size_t>(j);
      frozen[jj] = 1;
      value[jj] = std::max(floors[jj], problem.weight(j) * level);
      --unfrozen;
    }
  }
}

core::AllocationProblem generated_problem(std::uint64_t seed, int jobs,
                                          int sites, double zipf,
                                          workload::DemandModel model) {
  workload::GeneratorConfig config;
  config.jobs = jobs;
  config.sites = sites;
  config.zipf_skew = zipf;
  config.sites_per_job_min = 2;
  config.sites_per_job_max = 8;
  config.demand_model = model;
  config.demand_factor = 0.2;
  config.seed = seed;
  return workload::Generator(config).generate();
}

// The global-cut start (DESIGN §6) returns every round's level and
// can_increase bit for bit as the job-cut descent does, over 240 seeded
// instances of six shapes, in no more max flows per shape.
TEST(JobCutStart, GlobalCutStartMatchesJobCutDescent) {
  auto stateless = [&](const std::string& shape, int instances,
                       auto make_problem, bool with_floors) {
    DescentTally tally;
    for (int i = 0; i < instances; ++i) {
      const core::AllocationProblem problem = make_problem(i);
      const auto floors =
          with_floors ? core::EnhancedAmfAllocator::sharing_floors(problem)
                      : std::vector<double>(
                            static_cast<std::size_t>(problem.jobs()), 0.0);
      flow::TransportNetwork net(problem.demands(), problem.capacities());
      flow::TransportNetwork ref(problem.demands(), problem.capacities());
      expect_fill_matches_job_cut_descent(
          net, ref, problem, floors, tally,
          shape + " instance " + std::to_string(i));
    }
    EXPECT_LE(tally.probes, tally.ref_probes) << shape;
    return tally;
  };
  const auto wide = stateless("uncapped 1000x100 zipf 1.0", 8, [](int i) {
    return generated_problem(100 + static_cast<std::uint64_t>(i), 1000, 100,
                             1.0, workload::DemandModel::kUncapped);
  }, false);
  // One freeze round each, at the global cut, in one max flow instead of
  // two.
  EXPECT_LT(wide.probes, wide.ref_probes);
  const auto uncapped = stateless("uncapped 200x100", 40, [](int i) {
    return generated_problem(200 + static_cast<std::uint64_t>(i), 200, 100,
                             0.5, workload::DemandModel::kUncapped);
  }, false);
  EXPECT_LT(uncapped.probes, uncapped.ref_probes);
  stateless("proportional 60x12", 50, [](int i) {
    return generated_problem(300 + static_cast<std::uint64_t>(i), 60, 12,
                             1.0 - 0.5 * (i % 2),
                             workload::DemandModel::kProportionalToWork);
  }, false);
  util::Rng rng(5150);
  stateless("weighted", 40, [&](int i) {
    return weighted_problem(rng, 8 + i % 24, 3 + i % 6);
  }, false);
  // Uncapped jobs sharing a few sites have equal-split floors at the
  // level the global cut binds at, so a segment starts right on it: the
  // start snaps onto the bracket there, as a Newton step would.
  stateless("E-AMF floors", 60, [&](int i) {
    if (i % 3 == 2) return uncapped_problem(rng, 4 + i % 9, 1 + i % 4);
    if (i % 3 == 0) return weighted_problem(rng, 6 + i % 20, 3 + i % 5);
    return generated_problem(400 + static_cast<std::uint64_t>(i), 40, 10,
                             0.5, workload::DemandModel::kProportionalToWork);
  }, true);

  // Warm workspaces under churn: two with one history, one solved by each
  // descent, so both warm-start every probe.
  DescentTally warm;
  for (int i = 0; i < 42; ++i) {
    auto problem = i % 2 == 0 ? pinned_problem(rng, 20, 8)
                              : uncapped_problem(rng, 30, 10);
    core::SolverWorkspace ws, ws_ref;
    ws.prime(problem);
    ws_ref.prime(problem);
    for (int step = 0; step < 5; ++step) {
      expect_fill_matches_job_cut_descent(
          ws.transport(), ws_ref.transport(), problem,
          std::vector<double>(static_cast<std::size_t>(problem.jobs()), 0.0),
          warm,
          "warm instance " + std::to_string(i) + " step " +
              std::to_string(step));
      const auto delta = pinned_delta(rng, problem);
      problem = std::move(problem).apply(delta);
      ws.apply(delta);
      ws_ref.apply(delta);
    }
  }
  EXPECT_LE(warm.probes, warm.ref_probes);
}

// The probe policy follows the network's constructor. A stateless fill
// builds the dense network, whose probes are all cold solves; a
// workspace's first fill starts cold on its add_job network and
// warm-starts every later probe from the flow the first one left.
TEST(TransportProbePolicy, StatelessFillNeverWarmStarts) {
  util::Rng rng(2019);
  const auto problem = pinned_problem(rng, 16, 10);
  core::AmfAllocator amf;
  core::SolveReport report;
  const long long warm = counter("amf_flow_probe_warm");
  const long long cold = counter("amf_flow_probe_cold");
  amf.allocate_with_report(problem, report);
  EXPECT_GT(report.trace.rounds, 1);
  EXPECT_EQ(counter("amf_flow_probe_warm"), warm);
  EXPECT_EQ(counter("amf_flow_probe_cold"), cold);
}

TEST(TransportProbePolicy, WorkspaceFirstFillWarmStartsFromItsSecondProbe) {
  util::Rng rng(2019);
  const auto problem = pinned_problem(rng, 16, 10);
  core::AmfAllocator amf;
  core::SolverWorkspace ws;
  const long long warm = counter("amf_flow_probe_warm");
  const long long cold = counter("amf_flow_probe_cold");
  const long long probes = counter("amf_flow_probes");
  const long long hits = counter("amf_flow_memo_hits");
  const auto warm_alloc = amf.allocate(problem, ws);
  const long long fill_probes = counter("amf_flow_probes") - probes;
  EXPECT_GT(fill_probes, 1);
  EXPECT_EQ(counter("amf_flow_probe_cold") - cold, 1);
  EXPECT_EQ(counter("amf_flow_probe_warm") - warm,
            fill_probes - 1 - (counter("amf_flow_memo_hits") - hits));
  expect_bit_identical(warm_alloc, amf.allocate(problem), 0);
}

TEST(WorkspaceCompaction, TriggerCountsOnlyRowsMaskedSinceLastRebuild) {
  // A long stream at a steady job count: every rebuild drops the masked
  // rows, so the next one waits for a fresh quarter of departures rather
  // than firing on every solve once departures outnumber a quarter of all
  // rows ever added.
  util::Rng rng(77);
  auto problem = pinned_problem(rng, 24, 8);
  core::AmfAllocator amf;
  core::SolverWorkspace ws;
  const long long compactions_before = counter("amf_flow_inc_compactions");
  int departures = 0;
  for (int step = 0; step < 240; ++step) {
    expect_bit_identical(amf.allocate(problem, ws), amf.allocate(problem),
                         step);
    core::ProblemDelta delta;
    if (step % 2 == 0) {
      auto row = sparse_row(rng, problem.sites());
      delta = core::ProblemDelta::job_arrived(row, {}, 1.0, row);
    } else {
      delta = core::ProblemDelta::job_departed(static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(problem.jobs()))));
      ++departures;
    }
    problem = std::move(problem).apply(delta);
    ws.apply(delta);
  }
  const long long compactions =
      counter("amf_flow_inc_compactions") - compactions_before;
  EXPECT_GT(compactions, 0);
  EXPECT_LE(compactions, departures / 4 + 1);
}

}  // namespace
}  // namespace amf
