// F9 — Online execution: mean JCT vs offered load.
//
// Jobs arrive as a Poisson process; at every arrival/completion the
// active set is reallocated by the policy. Expected shape: all policies
// degrade as load approaches saturation, with AMF (and AMF plus the JCT
// add-on) consistently below PSMF, the gap widest at moderate-to-high
// load where the allocation choice matters most.
#include "common.hpp"

int main() {
  using namespace amf;
  bench::preamble(
      "F9", "online mean JCT vs offered load (z=1.2, 150 jobs, 3 traces)",
      {"Poisson arrivals; load = mean arriving work / total capacity",
       "expected: AMF < PSMF across loads; add-on helps further"});

  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  core::PerSiteMaxMin psmf;

  struct Variant {
    std::string name;
    const core::Allocator* policy;
    bool addon;
  };
  const std::vector<Variant> variants{
      {"PSMF", &psmf, false},
      {"AMF", &amf, false},
      {"AMF+addon", &amf, true},
      {"E-AMF", &eamf, false},
  };

  util::CsvWriter csv(std::cout,
                      {"load", "policy", "mean_jct", "p95_jct", "max_jct",
                       "time_avg_jain"});
  for (double load : {0.3, 0.5, 0.7, 0.9, 1.1}) {
    for (const auto& variant : variants) {
      util::Accumulator mean, p95, max, jain;
      for (int rep = 0; rep < 3; ++rep) {
        workload::Generator gen(workload::paper_default(
            1.2, 5000 + static_cast<std::uint64_t>(rep)));
        auto trace = workload::generate_trace(gen, load, 150);
        sim::SimulatorConfig sim_cfg;
        sim_cfg.use_jct_addon = variant.addon;
        sim::Simulator simulator(*variant.policy, sim_cfg);
        auto records = simulator.run(trace);
        std::vector<double> jct;
        for (const auto& r : records) jct.push_back(r.jct());
        double m = 0.0;
        for (double t : jct) m += t;
        mean.add(m / static_cast<double>(jct.size()));
        p95.add(util::percentile(jct, 95.0));
        max.add(util::percentile(jct, 100.0));
        jain.add(simulator.stats().time_avg_jain);
      }
      csv.row({util::CsvWriter::format(load), variant.name,
               util::CsvWriter::format(mean.mean()),
               util::CsvWriter::format(p95.mean()),
               util::CsvWriter::format(max.mean()),
               util::CsvWriter::format(jain.mean())});
    }
  }
  return 0;
}
