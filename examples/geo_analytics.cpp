// geo_analytics — the paper's motivating scenario: analytics jobs over
// geo-distributed datacenters with heavily skewed data placement.
//
//   $ ./geo_analytics [zipf_skew]
//
// Generates the geo_analytics workload preset (12 sites, 150 jobs,
// Pareto-sized jobs, skewed placement), compares PSMF / AMF / E-AMF on
// balance metrics and completion times (static ideal lens + batch
// simulation), and prints per-site utilization.
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "amf.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amf;
  double skew = argc > 1 ? std::atof(argv[1]) : 1.2;

  auto cfg = workload::geo_analytics(2024);
  cfg.zipf_skew = skew;
  workload::Generator gen(cfg);
  auto problem = gen.generate();
  std::cout << "geo-distributed analytics: " << problem.jobs()
            << " jobs across " << problem.sites()
            << " datacenters, zipf skew " << skew << "\n\n";

  core::PerSiteMaxMin psmf;
  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;

  util::Table table({"policy", "jain", "min/max", "gini", "mean W/A",
                     "p95 W/A", "SI violation"});
  const std::vector<std::pair<std::string, const core::Allocator*>> policies{
      {"PSMF", &psmf}, {"AMF", &amf}, {"E-AMF", &eamf}};
  for (const auto& [name, policy] : policies) {
    auto a = policy->allocate(problem);
    auto fairness = core::fairness_report(problem, a);
    auto ideal = core::aggregate_rate_completion_times(problem, a);
    std::vector<double> finite;
    for (double t : ideal)
      if (std::isfinite(t) && t > 0) finite.push_back(t);
    double mean = 0.0;
    for (double t : finite) mean += t;
    mean /= static_cast<double>(finite.size());
    table.row({name, util::CsvWriter::format(fairness.jain),
               util::CsvWriter::format(fairness.min_max),
               util::CsvWriter::format(fairness.gini),
               util::CsvWriter::format(mean),
               util::CsvWriter::format(util::percentile(finite, 95.0)),
               util::CsvWriter::format(
                   core::max_sharing_incentive_violation(problem, a))});
  }
  table.print(std::cout);

  // Per-site picture under PSMF vs AMF: the hot sites are equally full,
  // but who occupies them differs.
  std::cout << "\nper-site utilization (identical when demands are "
               "elastic; the difference is who gets the capacity):\n";
  auto psmf_alloc = psmf.allocate(problem);
  auto amf_alloc = amf.allocate(problem);
  util::Table sites({"site", "capacity", "PSMF used", "AMF used"});
  for (int s = 0; s < problem.sites(); ++s)
    sites.row_numeric("dc" + std::to_string(s),
                      {problem.capacity(s), psmf_alloc.site_usage(s),
                       amf_alloc.site_usage(s)});
  sites.print(std::cout);

  // Batch execution through the simulator: the operational JCT story.
  workload::Generator gen2(cfg);
  auto trace = workload::generate_trace(gen2, 0.8, 120);
  for (auto& j : trace.jobs) j.arrival = 0.0;
  std::cout << "\nbatch of 120 jobs through the event simulator:\n";
  util::Table simtab({"policy", "mean JCT", "p95 JCT", "events"});
  struct V {
    std::string name;
    const core::Allocator* policy;
    bool addon;
  };
  for (const auto& v : std::vector<V>{{"PSMF", &psmf, false},
                                      {"AMF", &amf, false},
                                      {"AMF+addon", &amf, true}}) {
    sim::SimulatorConfig sc;
    sc.use_jct_addon = v.addon;
    sim::Simulator simulator(*v.policy, sc);
    auto records = simulator.run(trace);
    std::vector<double> jct;
    for (const auto& r : records) jct.push_back(r.jct());
    double mean = 0.0;
    for (double t : jct) mean += t;
    mean /= static_cast<double>(jct.size());
    simtab.row({v.name, util::CsvWriter::format(mean),
                util::CsvWriter::format(util::percentile(jct, 95.0)),
                util::CsvWriter::format(simulator.stats().events)});
  }
  simtab.print(std::cout);
  return 0;
}
