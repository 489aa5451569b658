// parametric_gallop_test.cpp — pins progressive filling's results on
// generated instances so that a change to how the level solver walks a
// run of demand-bound rounds must reproduce them byte for byte.
//
// The golden file holds, per allocation, FNV-1a hashes of every share's
// bit pattern and of the FillTrace (freeze rounds, freeze levels), plus
// the round count in the clear. AMF and E-AMF (floored fill) run on
// uncapped and proportional-demand instances of 8–150 jobs × 3–22 sites,
// with and without weights, and an exact-realization workspace replays a
// stream of departures and site-capacity cuts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dense_mirror.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "golden.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace amf {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// One line per allocation: label, rounds, share hash, trace hash.
void append(std::string& out, const std::string& label,
            const core::Allocation& a, const core::FillTrace& trace) {
  Fnv shares, fill;
  for (int j = 0; j < a.jobs(); ++j)
    for (int s = 0; s < a.sites(); ++s) shares.add(a.share(j, s));
  for (int r : trace.freeze_round)
    fill.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(r)));
  for (double l : trace.freeze_level) fill.add(l);
  out += label + " rounds=" + std::to_string(trace.rounds) +
         " shares=" + hex(shares.h) + " trace=" + hex(fill.h) + "\n";
}

struct Instance {
  int jobs, sites;
  workload::DemandModel model;
  double factor;
  bool weighted;
};

core::AllocationProblem make_instance(const Instance& c, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.jobs = c.jobs;
  cfg.sites = c.sites;
  cfg.demand_model = c.model;
  cfg.demand_factor = c.factor;
  cfg.capacity_jitter = 0.3;
  cfg.seed = seed;
  auto problem = workload::Generator(cfg).generate();
  if (!c.weighted) return problem;
  util::Rng rng(seed ^ 0x5eedULL);
  std::vector<double> weights(static_cast<std::size_t>(c.jobs));
  for (auto& w : weights) w = rng.uniform(0.5, 3.0);
  return core::AllocationProblem(test::dense_demands(problem),
                                 problem.capacities(),
                                 test::dense_workloads(problem),
                                 std::move(weights));
}

std::string label_of(const Instance& c, std::uint64_t seed) {
  const bool uncapped = c.model == workload::DemandModel::kUncapped;
  char buf[96];
  std::snprintf(buf, sizeof buf, "seed=%llu n=%d m=%d %s%s",
                static_cast<unsigned long long>(seed), c.jobs, c.sites,
                uncapped ? "uncapped" : "prop=",
                c.weighted ? " weighted" : "");
  std::string label = buf;
  if (!uncapped) {
    std::snprintf(buf, sizeof buf, "%g", c.factor);
    label.insert(label.find("prop=") + 5, buf);
  }
  return label;
}

const Instance kInstances[] = {
    {8, 3, workload::DemandModel::kProportionalToWork, 0.05, false},
    {8, 3, workload::DemandModel::kUncapped, 1.0, true},
    {20, 5, workload::DemandModel::kProportionalToWork, 0.1, true},
    {20, 5, workload::DemandModel::kProportionalToWork, 1.0, false},
    {40, 8, workload::DemandModel::kProportionalToWork, 0.25, false},
    {40, 8, workload::DemandModel::kUncapped, 1.0, false},
    {60, 12, workload::DemandModel::kProportionalToWork, 0.05, true},
    {80, 12, workload::DemandModel::kProportionalToWork, 0.5, true},
    {100, 16, workload::DemandModel::kProportionalToWork, 0.1, false},
    {100, 16, workload::DemandModel::kUncapped, 1.0, true},
    {150, 22, workload::DemandModel::kProportionalToWork, 0.05, false},
    {150, 22, workload::DemandModel::kProportionalToWork, 0.25, true},
    {150, 22, workload::DemandModel::kProportionalToWork, 1.0, false},
};

TEST(ParametricGallop, MatchesSequentialFillGolden) {
  const core::AmfAllocator amf;
  std::string out;
  std::uint64_t seed = 1;
  for (const Instance& c : kInstances) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      const auto problem = make_instance(c, seed);
      const std::string label = label_of(c, seed);

      core::SolveReport report;
      const auto a = amf.allocate_with_report(problem, report);
      append(out, "amf " + label, a, report.trace);

      core::FillTrace trace;
      const auto e = core::progressive_fill(
          problem, core::EnhancedAmfAllocator::sharing_floors(problem),
          "E-AMF", 1e-9, flow::LevelMethod::kCutNewton, nullptr, &trace);
      append(out, "eamf " + label, e, trace);
    }
  }

  // Warm exact-realization streams: departures and site-capacity cuts.
  const Instance streams[] = {
      {60, 10, workload::DemandModel::kProportionalToWork, 0.1, false},
      {120, 18, workload::DemandModel::kProportionalToWork, 0.25, true},
      {50, 6, workload::DemandModel::kUncapped, 1.0, true},
  };
  for (const Instance& c : streams) {
    auto problem = make_instance(c, seed);
    const std::string label = label_of(c, seed++);
    util::Rng rng(seed);
    core::SolverWorkspace ws;
    for (int step = 0; step < 12; ++step) {
      const auto a = amf.allocate(problem, ws);
      append(out, "warm " + label + " step=" + std::to_string(step), a,
             ws.report().trace);
      core::ProblemDelta delta;
      if (rng.bernoulli(0.3)) {
        // A cut: the site keeps 55–95% of its capacity.
        const auto s = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(problem.sites())));
        delta = core::ProblemDelta::site_capacity(
            s, problem.capacity(s) * rng.uniform(0.55, 0.95));
      } else {
        delta = core::ProblemDelta::job_departed(static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(problem.jobs()))));
      }
      problem = std::move(problem).apply(delta);
      ws.apply(delta);
    }
  }
  golden::check_or_regen("gallop_sequential_fill.txt", out);
}

}  // namespace
}  // namespace amf
