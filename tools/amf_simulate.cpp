// amf_simulate — command-line trace simulator.
//
//   amf_simulate [--policy amf|eamf|psmf] [--addon] [--jobs N]
//                [--sites M] [--resources R] [--skew Z] [--load L]
//                [--seed S] [--batch]
//                [--faults] [--mtbf T] [--mttr T] [--loss F]
//                [--budget-ms B] [--cold] [--trace-out F]
//                [--metrics-out F] [--prom-out F]
//
// Generates a synthetic arrival trace with the library's workload
// generator, executes it through the discrete-event simulator under the
// chosen policy, and prints one CSV row per job (arrival, completion,
// JCT, work) followed by '#' summary lines.
//
// With --faults, a seeded MTBF/MTTR fault schedule is injected into the
// trace (site outages and recoveries), the policy runs inside
// RobustAllocator (primary → salvage → per-site max-min), and the summary
// reports work lost, availability-weighted utilization, recovery latency
// and which fallback tier served the allocation events.
//
// With --budget-ms B, every reallocation event runs under a B-millisecond
// wall-clock budget: the engine installs it as the ambient deadline around
// each allocate call, and the policy is wrapped in RobustAllocator (the
// primary runs under half the budget; an interrupted primary's partial
// fill is salvaged, else per-site max-min serves). A '# deadline' summary
// line reports how many events overran the budget and the worst salvage
// fairness gap.
//
// Observability outputs: --trace-out enables scoped-span tracing and
// writes a Chrome trace-event JSON (open in Perfetto / chrome://tracing);
// --metrics-out writes the metric registry snapshot as JSON, including a
// per-event series (time, solver latency, warm flag, serving tier);
// --prom-out writes the same snapshot in Prometheus text format.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

#include "amf.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

namespace {

int usage(bool help = false) {
  (help ? std::cout : std::cerr)
      << "usage: amf_simulate [--policy amf|eamf|psmf] [--addon] "
               "[--jobs N] [--sites M] [--resources R] [--skew Z] "
               "[--load L] [--seed S] "
               "[--batch] [--faults] [--mtbf T] [--mttr T] [--loss F] "
               "[--budget-ms B] [--cold] [--trace-out F] "
               "[--metrics-out F] [--prom-out F]\n"
               "  --budget-ms B  per-event wall-clock budget (ms): wraps "
               "the policy in the\n"
               "               robust chain and bounds every allocate call "
               "(0 = unbudgeted)\n"
               "  --cold       rebuild the allocation problem and flow "
               "network at every event\n"
               "               instead of the incremental delta pipeline "
               "(identical results)\n"
               "  --trace-out F    enable span tracing, write Chrome "
               "trace-event JSON to F\n"
               "  --metrics-out F  write the metric registry snapshot "
               "(JSON, with per-event series) to F\n"
               "  --prom-out F     write the snapshot in Prometheus text "
               "format to F\n";
  return help ? 0 : 2;
}

/// The per-event series spliced into the metrics JSON: one object per
/// reallocation point, in event order.
std::string event_series_json(const std::vector<amf::sim::EventSample>& s) {
  std::string out = "\"events\": [";
  char buf[64];
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"index\": ";
    out += std::to_string(i);
    std::snprintf(buf, sizeof buf, ", \"time\": %.17g", s[i].time);
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"alloc_ms\": %.6g", s[i].alloc_ms);
    out += buf;
    out += ", \"warm\": ";
    out += s[i].warm ? "true" : "false";
    out += ", \"tier\": ";
    out += std::to_string(s[i].tier);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  std::string policy_name = "amf";
  bool use_addon = false, batch = false, faults = false, cold = false;
  int jobs = 100, sites = 10, resources = 1;
  double skew = 1.0, load = 0.8;
  double mtbf = 200.0, mttr = 20.0, loss = 1.0, budget_ms = 0.0;
  std::uint64_t seed = 42;
  std::string trace_out, metrics_out, prom_out;
  constexpr double kPositive = std::numeric_limits<double>::min();
  for (int i = 1; i < argc; ++i) {
    // Strict numeric operand: a missing, malformed or out-of-range value
    // is a usage error (exit 2), never a silent 0 or a truncated prefix.
    auto number = [&](auto* out, auto... range) {
      return i + 1 < argc && util::parse_number(argv[++i], out, range...);
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      return usage(true);
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      policy_name = argv[++i];
    } else if (std::strcmp(argv[i], "--addon") == 0) {
      use_addon = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!number(&jobs, 0)) return usage();
    } else if (std::strcmp(argv[i], "--sites") == 0) {
      if (!number(&sites, 1)) return usage();
    } else if (std::strcmp(argv[i], "--resources") == 0) {
      if (!number(&resources, 1)) return usage();
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      if (!number(&skew, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--load") == 0) {
      if (!number(&load, kPositive)) return usage();
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--mtbf") == 0) {
      if (!number(&mtbf, kPositive)) return usage();
    } else if (std::strcmp(argv[i], "--mttr") == 0) {
      if (!number(&mttr, kPositive)) return usage();
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      if (!number(&loss, 0.0, 1.0)) return usage();
    } else if (std::strcmp(argv[i], "--budget-ms") == 0) {
      if (!number(&budget_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!number(&seed)) return usage();
    } else if (std::strcmp(argv[i], "--cold") == 0) {
      cold = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--prom-out") == 0 && i + 1 < argc) {
      prom_out = argv[++i];
    } else {
      return usage();
    }
  }

  std::unique_ptr<core::Allocator> policy;
  if (policy_name == "amf")
    policy = std::make_unique<core::AmfAllocator>();
  else if (policy_name == "eamf")
    policy = std::make_unique<core::EnhancedAmfAllocator>();
  else if (policy_name == "psmf")
    policy = std::make_unique<core::PerSiteMaxMin>();
  else
    return usage();

  try {
    auto cfg = workload::paper_default(skew, seed);
    cfg.sites = sites;
    cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, sites);
    cfg.resources = resources;
    workload::Generator generator(cfg);
    auto trace = workload::generate_trace(generator, load, jobs);
    if (batch)
      for (auto& j : trace.jobs) j.arrival = 0.0;
    if (faults) {
      workload::FaultInjectorConfig fault_cfg;
      fault_cfg.mtbf = mtbf;
      fault_cfg.mttr = mttr;
      fault_cfg.seed = seed + 0x5eed;
      workload::FaultInjector injector(fault_cfg);
      injector.inject(trace);
    }

    sim::SimulatorConfig sim_cfg;
    sim_cfg.use_jct_addon = use_addon;
    sim_cfg.loss_factor = loss;
    sim_cfg.incremental = !cold;
    sim_cfg.event_budget_ms = budget_ms;
    // Under faults or a time budget the allocator runs inside the
    // graceful-degradation chain: a solver corner case (or an interrupted
    // solve) must never kill the whole simulation.
    core::RobustAllocator robust(*policy);
    const core::Allocator& active_policy =
        faults || budget_ms > 0.0 ? static_cast<const core::Allocator&>(robust)
                                  : *policy;
    sim::Simulator simulator(active_policy, sim_cfg);
    if (!trace_out.empty()) obs::Tracer::global().set_enabled(true);
    auto records = simulator.run(trace);

    if (!trace_out.empty()) {
      obs::Tracer::global().set_enabled(false);
      auto spans = obs::Tracer::global().drain();
      if (!obs::write_text_file(trace_out, obs::to_chrome_trace(spans))) {
        std::cerr << "amf_simulate: cannot write " << trace_out << "\n";
        return 1;
      }
    }
    if (!metrics_out.empty() || !prom_out.empty()) {
      const auto snap = obs::Registry::global().snapshot();
      if (!metrics_out.empty() &&
          !obs::write_text_file(
              metrics_out,
              obs::to_metrics_json(
                  snap, event_series_json(simulator.event_series())))) {
        std::cerr << "amf_simulate: cannot write " << metrics_out << "\n";
        return 1;
      }
      if (!prom_out.empty() &&
          !obs::write_text_file(prom_out, obs::to_prometheus_text(snap))) {
        std::cerr << "amf_simulate: cannot write " << prom_out << "\n";
        return 1;
      }
    }

    util::CsvWriter csv(std::cout,
                        {"job", "arrival", "completion", "jct", "work"});
    std::vector<double> jct;
    jct.reserve(records.size());
    for (const auto& r : records) {
      csv.row_numeric({static_cast<double>(r.id), r.arrival, r.completion,
                       r.jct(), r.total_work});
      jct.push_back(r.jct());
    }
    if (!jct.empty()) {
      double mean = 0.0;
      for (double t : jct) mean += t;
      mean /= static_cast<double>(jct.size());
      std::cout << "# policy " << policy_name << (use_addon ? "+addon" : "")
                << " jobs " << jobs << " load " << load << " skew " << skew;
      // Only printed off the scalar default so R=1 output stays
      // byte-identical to the pre-lift tool.
      if (resources > 1) std::cout << " resources " << resources;
      std::cout << "\n"
                << "# mean_jct " << mean << " p95_jct "
                << util::percentile(jct, 95.0) << " makespan "
                << simulator.stats().makespan << " events "
                << simulator.stats().events << " avg_utilization "
                << simulator.stats().avg_utilization << "\n";
      // Wall-clock solver time would break the byte-identical determinism
      // contract of the default output, so the obs summary only appears
      // when an observability export was asked for.
      if (!trace_out.empty() || !metrics_out.empty() || !prom_out.empty()) {
        std::cout << "# obs alloc_ms " << simulator.stats().alloc_ms
                  << " spans " << simulator.stats().spans_recorded
                  << " dropped " << simulator.stats().spans_dropped << "\n";
      }
      if (faults) {
        const auto& st = simulator.stats();
        std::cout << "# faults mtbf " << mtbf << " mttr " << mttr << " loss "
                  << loss << " fault_events " << st.fault_events
                  << " work_lost " << st.work_lost << " recoveries "
                  << st.recoveries << " mean_recovery_latency "
                  << st.mean_recovery_latency << " avail_utilization "
                  << st.avail_utilization << "\n";
        std::cout << "# fallback " << robust.fallback_stats().summary()
                  << "\n";
      }
      // Wall-clock budgets make the run timing-dependent anyway, so this
      // line never appears in the byte-identical default output.
      if (budget_ms > 0.0) {
        const auto ds = robust.deadline_stats();
        std::cout << "# deadline budget_ms " << budget_ms
                  << " events_over_budget "
                  << simulator.stats().events_over_budget
                  << " deadline_events " << ds.deadline_events
                  << " worst_salvage_gap " << ds.worst_salvage_gap << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "amf_simulate: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
