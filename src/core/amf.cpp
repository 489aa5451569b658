#include "core/amf.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "core/workspace.hpp"
#include "flow/parametric.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {

/// Source cap of job j at level t given its floor: max(floor, weight·t).
double cap_at(double floor, double weight, double t) {
  return std::max(floor, weight * t);
}

struct FillCounters {
  obs::Counter fills;
  obs::Counter rounds;
  obs::Counter warm_allocs;
  obs::Counter cold_allocs;
  FillCounters() {
    auto& reg = obs::Registry::global();
    fills = reg.counter("amf_core_fills", "progressive-fill invocations");
    rounds = reg.counter("amf_core_fill_rounds",
                         "freeze rounds across all progressive fills");
    warm_allocs = reg.counter(
        "amf_core_alloc_warm",
        "workspace allocates served by an already-primed network");
    cold_allocs = reg.counter(
        "amf_core_alloc_cold",
        "workspace allocates that had to prime (build) the network");
  }
};

FillCounters& fill_counters() {
  static FillCounters counters;
  return counters;
}

}  // namespace

Allocation progressive_fill(const AllocationProblem& problem,
                            const std::vector<double>& floors,
                            const std::string& policy_name, double eps,
                            flow::LevelMethod method, SolveReport* report,
                            flow::TransportNetwork* external_net) {
  const util::Deadline deadline = util::ambient_deadline();
  const int n = problem.jobs();
  AMF_SPAN_ARG("core/progressive_fill", "jobs", n);
  if (report != nullptr) {
    report->trace.freeze_round.assign(static_cast<std::size_t>(n), 0);
    report->trace.freeze_level.assign(static_cast<std::size_t>(n), 0.0);
    report->trace.rounds = 0;
  }
  AMF_REQUIRE(static_cast<int>(floors.size()) == n,
              "one floor per job required");
  for (double f : floors) AMF_REQUIRE(f >= 0.0, "floors must be >= 0");

  if (n == 0)
    return Allocation(flow::ShareRows{}, policy_name);

  std::optional<flow::TransportNetwork> local_net;
  if (external_net == nullptr)
    local_net.emplace(problem.demands(), problem.capacities());
  flow::TransportNetwork& net =
      external_net != nullptr ? *external_net : *local_net;
  AMF_REQUIRE(net.jobs() == n && net.sites() == problem.sites(),
              "transport network shape != problem shape");
  const double scale = net.scale();
  const double tol = eps * scale;

  // A fill that starts after its deadline does no work, even when no level
  // would need solving, so its status alone tells a caller whether it was
  // interrupted. The flow already on the network is conservative, hence a
  // feasible partial answer.
  if (deadline.expired()) {
    if (report != nullptr)
      report->observe(flow::LevelStatus::kDeadlineExceeded);
    return Allocation::from_network(net, policy_name);
  }

  // All-zero floors are trivially feasible (the zero flow attains them);
  // skipping the probe keeps any flow a persistent network carried over
  // from a previous solve available for warm-started level probes.
  bool positive_floor = false;
  for (double f : floors) positive_floor = positive_floor || f > 0.0;
  if (positive_floor) {
    net.probe(floors, eps);
    if (deadline.expired() && !net.saturated(eps)) {
      // The deadline fired inside the probe itself (the flow on the
      // network is conservative, so the matrix is feasible): report an
      // interrupted fill, not a floor-contract violation.
      if (report != nullptr)
        report->observe(flow::LevelStatus::kDeadlineExceeded);
      return Allocation::from_network(net, policy_name);
    }
    // Equal-split floors are feasible by construction, so a probe that
    // leaves them unsaturated is the flow's tolerance failing, not the
    // caller's input: an InternalError, which the fallback chain catches.
    AMF_ASSERT(net.saturated(eps),
               "floor probe did not saturate jointly feasible floors");
  }

  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<double> value(static_cast<std::size_t>(n), 0.0);
  int unfrozen_count = n;

  // Jobs that can never receive anything are frozen at their floor (== 0,
  // since a positive floor would contradict floor feasibility).
  for (int j = 0; j < n; ++j) {
    if (net.solo_ceiling(j) <= tol) {
      frozen[static_cast<std::size_t>(j)] = 1;
      value[static_cast<std::size_t>(j)] = 0.0;
      --unfrozen_count;
    }
  }

  // Level segments: the cap function max(floor, w·t) changes slope at the
  // per-job breakpoints floor/w. Within one segment every cap is affine.
  double t_ub = 1.0 + scale;
  for (int j = 0; j < n; ++j)
    t_ub = std::max(t_ub, net.solo_ceiling(j) / problem.weight(j) + 1.0);
  std::set<double> boundary_set{0.0, t_ub};
  for (int j = 0; j < n; ++j) {
    if (frozen[static_cast<std::size_t>(j)]) continue;
    double b = floors[static_cast<std::size_t>(j)] / problem.weight(j);
    if (b > tol && b < t_ub) boundary_set.insert(b);
  }
  std::vector<double> bounds(boundary_set.begin(), boundary_set.end());

  double level = 0.0;
  std::size_t seg = 0;
  int round_counter = 0;
  auto mark_frozen = [&](int j) {
    if (report == nullptr) return;
    FillTrace& trace = report->trace;
    trace.freeze_round[static_cast<std::size_t>(j)] = round_counter;
    trace.freeze_level[static_cast<std::size_t>(j)] =
        value[static_cast<std::size_t>(j)] / problem.weight(j);
    trace.rounds = round_counter;
  };
  std::vector<flow::ParametricSource> sources(static_cast<std::size_t>(n));
  flow::GallopState gallop;
  // (level it stopped rising at, job) for the jobs one level solve freezes.
  std::vector<std::pair<double, int>> stopped;
  // Anytime exit: the flow currently on the network respects every demand
  // cap and site capacity (max-flow invariants), so it is a feasible
  // allocation, and every level frozen in a completed round is already
  // realized in it. kDeadlineExceeded marks the result partial.
  auto interrupted = [&]() {
    if (report != nullptr)
      report->observe(flow::LevelStatus::kDeadlineExceeded);
    FillCounters& counters = fill_counters();
    counters.fills.add(1);
    if (round_counter > 0) counters.rounds.add(round_counter);
    return Allocation::from_network(net, policy_name);
  };
  // Termination: every loop iteration either freezes at least one job or
  // advances to the next segment, so at most n + |bounds| iterations run.
  while (unfrozen_count > 0) {
    if (deadline.expired()) return interrupted();
    AMF_ASSERT(seg + 1 < bounds.size(), "ran out of level segments");
    const double seg_end = bounds[seg + 1];
    const double t_lo = std::max(level, bounds[seg]);
    const double t_tol = eps * std::max(1.0, seg_end);

    for (int j = 0; j < n; ++j) {
      auto& src = sources[static_cast<std::size_t>(j)];
      if (frozen[static_cast<std::size_t>(j)]) {
        src = {value[static_cast<std::size_t>(j)], 0.0, 0.0, true};
      } else {
        const double w = problem.weight(j);
        const double f = floors[static_cast<std::size_t>(j)];
        if (f >= w * seg_end - t_tol) {
          // Floor-clamped throughout this segment.
          src = {f, 0.0};
        } else {
          src = {0.0, w, f};
        }
      }
    }

    auto res = flow::solve_critical_level(net, sources, t_lo, seg_end, eps,
                                          method, &gallop);
    if (report != nullptr) {
      report->flow_solves += res.probes;
      report->observe(res.status);
    }
    if (res.status == flow::LevelStatus::kDeadlineExceeded)
      return interrupted();
    // Iteration-capped solves are usable (bisection closed the bracket and
    // re-certified feasibility); a degenerate one returned an allocation
    // that must not be trusted — surface it as InternalError, on which
    // RobustAllocator falls back to per-site max-min.
    AMF_ASSERT(res.status != flow::LevelStatus::kDegenerate,
               "critical-level solve degenerate: progressive filling "
               "cannot converge at this tolerance");
    level = res.level;

    if (res.segment_exhausted) {
      ++round_counter;
      ++seg;
      if (seg + 1 >= bounds.size()) {
        // The last segment's upper bound exceeds every attainable level, so
        // exhausting it is a numerical corner; freeze everyone at their cap.
        for (int j = 0; j < n; ++j) {
          if (frozen[static_cast<std::size_t>(j)]) continue;
          frozen[static_cast<std::size_t>(j)] = 1;
          value[static_cast<std::size_t>(j)] =
              cap_at(floors[static_cast<std::size_t>(j)], problem.weight(j),
                     level);
          --unfrozen_count;
          mark_frozen(j);
        }
      }
      continue;
    }

    // Freeze the jobs that cannot increase, and those a gallop carried to
    // their ceilings, each at the level it stopped rising at.
    stopped.clear();
    for (int j = 0; j < n; ++j) {
      if (frozen[static_cast<std::size_t>(j)]) continue;
      const double cut = std::max(
          flow::job_cut_level(net, sources[static_cast<std::size_t>(j)], j),
          t_lo);
      if (!res.can_increase[static_cast<std::size_t>(j)] || cut <= level)
        stopped.emplace_back(std::min(level, cut), j);
    }
    if (stopped.empty()) {
      // Numerically every job still had a hair of residual path at the
      // critical level. The level cannot rise further, so freeze all.
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)])
          stopped.emplace_back(level, j);
    }
    // One round per distinct freeze level, as if every job cut a gallop
    // passed had been its own level solve. Without a gallop every job
    // stops at `level` and `stopped` is already in order.
    if (!std::is_sorted(stopped.begin(), stopped.end()))
      std::sort(stopped.begin(), stopped.end());
    for (std::size_t i = 0; i < stopped.size(); ++i) {
      const auto [at, j] = stopped[i];
      if (i == 0 || at != stopped[i - 1].first) ++round_counter;
      frozen[static_cast<std::size_t>(j)] = 1;
      value[static_cast<std::size_t>(j)] =
          cap_at(floors[static_cast<std::size_t>(j)], problem.weight(j), at);
      --unfrozen_count;
      mark_frozen(j);
    }
  }

  FillCounters& counters = fill_counters();
  counters.fills.add(1);
  if (round_counter > 0) counters.rounds.add(round_counter);

  // Materialize the allocation realizing the frozen aggregates exactly.
  net.solve(value, eps);
  if (report != nullptr) ++report->flow_solves;
  if (deadline.expired() && !net.saturated(eps * 64.0)) {
    // The deadline fired inside the final materialization: the flow is a
    // feasible partial realization of the frozen aggregates.
    if (report != nullptr)
      report->observe(flow::LevelStatus::kDeadlineExceeded);
    return Allocation::from_network(net, policy_name);
  }
  AMF_ASSERT(net.saturated(eps * 64.0),
             "final frozen aggregates must be feasible");
  return Allocation::from_network(net, policy_name);
}

Allocation AmfAllocator::allocate(const AllocationProblem& problem) const {
  SolveReport report;
  return allocate_with_report(problem, report);
}

Allocation AmfAllocator::allocate_with_report(const AllocationProblem& problem,
                                              SolveReport& report) const {
  report.reset();
  std::vector<double> zero_floors(static_cast<std::size_t>(problem.jobs()),
                                  0.0);
  return progressive_fill(problem, zero_floors, name(), eps_, method_,
                          &report);
}

Allocation AmfAllocator::allocate(const AllocationProblem& problem,
                                  SolverWorkspace& workspace) const {
  SolveReport& report = workspace.report();
  report.reset();
  AMF_SPAN("core/allocate");
  const bool warm = workspace.primed();
  (warm ? fill_counters().warm_allocs : fill_counters().cold_allocs).add(1);
  if (!warm) workspace.prime(problem);
  std::vector<double> zero_floors(static_cast<std::size_t>(problem.jobs()),
                                  0.0);
  auto allocation = progressive_fill(problem, zero_floors, name(), eps_,
                                     method_, &report, &workspace.transport());
  report.warm = true;
  workspace.maybe_compact();
  return allocation;
}

}  // namespace amf::core
