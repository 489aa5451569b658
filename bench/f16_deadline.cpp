// F16 — Deadline-aware anytime allocation: budget vs solution quality.
//
// Replays one fault-heavy arrival trace through the simulator with the
// robust chain under a sweep of per-event time budgets, from unbudgeted
// (the quality reference) down to sub-millisecond slices. Every served
// allocation is audited for feasibility — the anytime contract is that a
// tighter budget degrades *fidelity* (salvage/per-site serves, larger
// fairness gap, longer completions), never *correctness*. Reported per
// budget: serving-tier mix, deadline interruptions, the worst salvage
// fairness gap, events that overran their slice, and mean JCT /
// makespan relative to the unbudgeted run.
//
//   bench_f16_deadline [--smoke] [--json PATH] [--gate-budget-ms X]
//
// CSV goes to stdout; a machine-readable summary is written to PATH
// (default BENCH_deadline.json). With --gate-budget-ms X, additionally
// replays an event-capped prefix of a 5000-job x 384-site sparse trace
// under an X-millisecond budget and exits non-zero unless every event
// produced a feasible allocation (the CI smoke gate). The gate replays
// the same prefix once more under a 0.001 ms budget, far below one
// primary solve on any host, and also exits non-zero unless every event
// there is feasible and some were served below the primary — so the
// salvage and per-site paths are exercised however fast the host is.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "core/robust.hpp"
#include "workload/faults.hpp"

namespace {

/// The gate's second budget: well below the cost of one primary solve on
/// any host, so the chain must serve from salvage or per-site.
constexpr double kStarvedBudgetMs = 0.001;

/// Audits every served allocation against the problem it was computed
/// for: feasibility (demand caps, site capacities, aggregate
/// consistency) plus the capacity conservation bound. The bench-side
/// twin of the chaos tests' invariant — failures are counted, not
/// asserted, so the gate can report them.
class AuditingAllocator final : public amf::core::Allocator {
 public:
  explicit AuditingAllocator(const amf::core::Allocator& inner)
      : inner_(inner) {}
  amf::core::Allocation allocate(
      const amf::core::AllocationProblem& p) const override {
    return audit(p, inner_.allocate(p));
  }
  amf::core::Allocation allocate(
      const amf::core::AllocationProblem& p,
      amf::core::SolverWorkspace& ws) const override {
    return audit(p, inner_.allocate(p, ws));
  }
  std::string name() const override { return inner_.name(); }

  int audited = 0;
  int failures = 0;

 private:
  amf::core::Allocation audit(const amf::core::AllocationProblem& p,
                              amf::core::Allocation alloc) const {
    auto* self = const_cast<AuditingAllocator*>(this);
    ++self->audited;
    double total = 0.0, capacity = 0.0;
    for (int j = 0; j < p.jobs(); ++j) total += alloc.aggregate(j);
    for (int s = 0; s < p.sites(); ++s) capacity += p.capacity(s);
    if (!alloc.feasible_for(p, 1e-6) ||
        total > capacity * (1.0 + 1e-6) + 1e-9)
      ++self->failures;
    return alloc;
  }

  const amf::core::Allocator& inner_;
};

/// Fault-heavy workload: sparse locality plus a hostile fault schedule
/// (failures every few time units), the regime where tight budgets
/// actually interrupt tiers instead of idling.
amf::workload::Trace faulty_trace(int jobs, int sites, std::uint64_t seed) {
  auto cfg = amf::workload::paper_default(1.2, seed);
  cfg.sites = sites;
  cfg.sites_per_job_min = 2;
  cfg.sites_per_job_max = std::min(4, sites);
  amf::workload::Generator gen(cfg);
  auto trace = amf::workload::generate_trace(gen, 0.9, jobs);
  amf::workload::FaultInjectorConfig fault_cfg;
  fault_cfg.mtbf = 4.0;
  fault_cfg.mttr = 1.5;
  fault_cfg.seed = seed ^ 0xfa016;
  amf::workload::FaultInjector injector(fault_cfg);
  injector.inject(trace);
  return trace;
}

struct RunResult {
  std::vector<amf::sim::JobRecord> records;
  amf::sim::RunStats stats;
  amf::core::FallbackStats fallback;
  amf::core::DeadlineStats deadline;
  int audited = 0;
  int audit_failures = 0;
  double ms = 0.0;
  double mean_jct = 0.0;
  double max_alloc_ms = 0.0;
};

RunResult run_once(const amf::workload::Trace& trace, double budget_ms,
                   int max_events) {
  amf::core::AmfAllocator amf_policy;
  amf::core::RobustAllocator robust(amf_policy);
  AuditingAllocator audited(robust);
  amf::sim::SimulatorConfig cfg;
  cfg.event_budget_ms = budget_ms;
  cfg.max_events = max_events;
  amf::sim::Simulator simulator(audited, cfg);
  auto start = std::chrono::steady_clock::now();
  RunResult out;
  out.records = simulator.run(trace);
  auto stop = std::chrono::steady_clock::now();
  out.stats = simulator.stats();
  out.fallback = robust.fallback_stats();
  out.deadline = robust.deadline_stats();
  out.audited = audited.audited;
  out.audit_failures = audited.failures;
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  int completed = 0;
  for (const auto& r : out.records) {
    if (r.completion >= r.arrival) {
      out.mean_jct += r.jct();
      ++completed;
    }
  }
  if (completed > 0) out.mean_jct /= completed;
  for (const auto& ev : simulator.event_series())
    out.max_alloc_ms = std::max(out.max_alloc_ms, ev.alloc_ms);
  return out;
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  bool smoke = false;
  std::string json_path = "BENCH_deadline.json";
  double gate_budget_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate-budget-ms") == 0 &&
               i + 1 < argc) {
      gate_budget_ms = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_f16_deadline [--smoke] [--json PATH] "
                   "[--gate-budget-ms X]\n";
      return 2;
    }
  }

  bench::preamble(
      "F16", "deadline-aware anytime allocation: budget vs solution quality",
      {"one fault-heavy sparse trace replayed under shrinking per-event",
       "time budgets (0 = unbudgeted quality reference); every served",
       "allocation audited for feasibility — budgets may only degrade",
       "fidelity (salvage serves, fairness gap, JCT), never correctness",
       "jct_ratio / makespan_ratio are relative to the unbudgeted run"});

  // Budget 0 first: it is the quality reference the ratios divide by.
  const std::vector<double> budgets =
      smoke ? std::vector<double>{0.0, 5.0, 1.0}
            : std::vector<double>{0.0, 50.0, 10.0, 2.0, 1.0, 0.5};
  const int jobs = smoke ? 60 : 240;
  const int sites = smoke ? 8 : 48;
  auto trace = faulty_trace(jobs, sites, 16001);

  util::CsvWriter csv(
      std::cout,
      {"budget_ms", "events", "deadline_events", "salvage_served",
       "persite_served", "degraded_events", "worst_salvage_gap",
       "events_over_budget", "max_alloc_ms", "mean_jct", "jct_ratio",
       "makespan_ratio", "run_ms", "feasible"});

  std::ostringstream json;
  json << "{\n  \"bench\": \"f16_deadline\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"jobs\": " << jobs
       << ",\n  \"sites\": " << sites << ",\n  \"results\": [\n";
  bool all_feasible = true;
  double ref_jct = 0.0, ref_makespan = 0.0;
  for (std::size_t p = 0; p < budgets.size(); ++p) {
    const double budget = budgets[p];
    auto run = run_once(trace, budget, /*max_events=*/0);
    if (p == 0) {
      ref_jct = run.mean_jct;
      ref_makespan = run.stats.makespan;
    }
    const bool feasible = run.audit_failures == 0 &&
                          run.audited == run.stats.events &&
                          run.records.size() == trace.jobs.size();
    all_feasible = all_feasible && feasible;
    const double jct_ratio = ref_jct > 0.0 ? run.mean_jct / ref_jct : 0.0;
    const double makespan_ratio =
        ref_makespan > 0.0 ? run.stats.makespan / ref_makespan : 0.0;
    using core::FallbackTier;
    const long salvage =
        run.fallback.served[static_cast<int>(FallbackTier::kSalvage)];
    const long persite =
        run.fallback.served[static_cast<int>(FallbackTier::kPerSite)];

    csv.row({fmt(budget), std::to_string(run.stats.events),
             std::to_string(run.deadline.deadline_events),
             std::to_string(salvage), std::to_string(persite),
             std::to_string(run.fallback.degraded_calls()),
             fmt(run.deadline.worst_salvage_gap),
             std::to_string(run.stats.events_over_budget),
             fmt(run.max_alloc_ms), fmt(run.mean_jct), fmt(jct_ratio),
             fmt(makespan_ratio), fmt(run.ms), feasible ? "1" : "0"});
    json << "    {\"budget_ms\": " << fmt(budget)
         << ", \"events\": " << run.stats.events
         << ", \"deadline_events\": " << run.deadline.deadline_events
         << ", \"salvage_served\": " << salvage
         << ", \"persite_served\": " << persite
         << ", \"degraded_events\": " << run.fallback.degraded_calls()
         << ", \"worst_salvage_gap\": " << fmt(run.deadline.worst_salvage_gap)
         << ", \"events_over_budget\": " << run.stats.events_over_budget
         << ", \"max_alloc_ms\": " << fmt(run.max_alloc_ms)
         << ", \"mean_jct\": " << fmt(run.mean_jct)
         << ", \"jct_ratio\": " << fmt(jct_ratio)
         << ", \"makespan_ratio\": " << fmt(makespan_ratio)
         << ", \"run_ms\": " << fmt(run.ms)
         << ", \"feasible\": " << (feasible ? "true" : "false") << "}"
         << (p + 1 < budgets.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"all_feasible\": " << (all_feasible ? "true" : "false");

  // CI smoke gate: an event-capped prefix of the F14-sized sparse trace
  // (5000 jobs x 384 sites — a full replay would take hours and prove
  // nothing extra) must stay feasible at the given budget. On a fast host
  // that budget may never interrupt the primary, so the same prefix is
  // replayed under kStarvedBudgetMs too, where it must also have served
  // degraded events (salvage or per-site) and stayed feasible.
  bool gate_ok = true, starved_ok = true;
  if (gate_budget_ms > 0.0) {
    auto gate_trace = faulty_trace(5000, 384, 16002);
    auto all_feasible_run = [](const RunResult& run) {
      return run.audit_failures == 0 && run.audited == run.stats.events &&
             run.stats.events > 0;
    };
    auto report = [&](const char* key, double budget, const RunResult& run,
                      bool ok) {
      std::cerr << "# " << key << ": budget_ms " << budget << " events "
                << run.stats.events << " deadline_events "
                << run.deadline.deadline_events << " degraded_events "
                << run.fallback.degraded_calls() << " audit_failures "
                << run.audit_failures << "\n";
      json << ",\n  \"" << key << "\": {\"budget_ms\": " << fmt(budget)
           << ", \"events\": " << run.stats.events
           << ", \"deadline_events\": " << run.deadline.deadline_events
           << ", \"degraded_events\": " << run.fallback.degraded_calls()
           << ", \"audit_failures\": " << run.audit_failures
           << ", \"ok\": " << (ok ? "true" : "false") << "}";
    };
    auto gate = run_once(gate_trace, gate_budget_ms, /*max_events=*/200);
    gate_ok = all_feasible_run(gate);
    report("gate", gate_budget_ms, gate, gate_ok);
    auto starved = run_once(gate_trace, kStarvedBudgetMs, /*max_events=*/200);
    starved_ok =
        all_feasible_run(starved) && starved.fallback.degraded_calls() > 0;
    report("starved_gate", kStarvedBudgetMs, starved, starved_ok);
  }
  json << "\n}\n";

  std::ofstream out(json_path);
  out << json.str();
  out.close();
  std::cerr << "# wrote " << json_path << "\n";

  if (!all_feasible) {
    std::cerr << "F16: a budgeted run served an infeasible allocation — "
                 "the anytime contract is violated\n";
    return 3;
  }
  if (!gate_ok) {
    std::cerr << "F16: gate failed at budget " << gate_budget_ms << " ms\n";
    return 4;
  }
  if (!starved_ok) {
    std::cerr << "F16: gate failed at budget " << kStarvedBudgetMs
              << " ms: an event was infeasible or none was served below "
                 "the primary\n";
    return 5;
  }
  return 0;
}
