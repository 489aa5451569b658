// T1 — Property satisfaction table.
//
// The paper proves AMF Pareto-efficient, envy-free and strategy-proof,
// and shows sharing incentive can fail; E-AMF restores it. This table
// validates every cell empirically on 1000 random capped-demand
// instances (plus misreport probes for the strategy column on a subset).
#include "common.hpp"
#include "oracle/oracle.hpp"

#include "util/table.hpp"

int main() {
  using namespace amf;
  bench::preamble("T1",
                  "property satisfaction over 1000 random instances",
                  {"percentages of instances satisfying each property",
                   "strategy column: profitable misreports found / probes",
                   "expected: AMF 100/100/0 violations except sharing "
                   "incentive; E-AMF restores sharing incentive"});

  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  core::PerSiteMaxMin psmf;
  struct Row {
    std::string name;
    const core::Allocator* policy;
    int pareto = 0, envy_free = 0, sharing = 0;
  };
  std::vector<Row> rows{{"AMF", &amf}, {"E-AMF", &eamf}, {"PSMF", &psmf}};

  const int instances = 1000;
  for (int i = 0; i < instances; ++i) {
    workload::Generator gen(
        workload::property_sweep(static_cast<std::uint64_t>(7000 + i)));
    auto problem = gen.generate();
    for (auto& row : rows) {
      auto a = row.policy->allocate(problem);
      row.pareto += core::is_pareto_efficient(problem, a) ? 1 : 0;
      row.envy_free += core::is_envy_free(problem, a, 1e-5) ? 1 : 0;
      row.sharing +=
          core::satisfies_sharing_incentive(problem, a, 1e-6) ? 1 : 0;
    }
  }

  // Strategy probes on a subset (they re-run the allocator many times).
  util::Rng rng(99);
  std::vector<int> profitable(rows.size(), 0);
  std::vector<int> probes(rows.size(), 0);
  for (int i = 0; i < 20; ++i) {
    auto cfg = workload::property_sweep(static_cast<std::uint64_t>(8000 + i));
    cfg.jobs = 5;
    workload::Generator gen(cfg);
    auto problem = gen.generate();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      auto result = oracle::probe_strategy_proofness(
          problem, *rows[r].policy, i % problem.jobs(), 10, rng, 1e-5);
      profitable[r] += result.profitable;
      probes[r] += result.trials;
    }
  }

  util::Table table({"policy", "pareto_%", "envy_free_%",
                     "sharing_incentive_%", "profitable_misreports"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    table.row({row.name,
               util::CsvWriter::format(100.0 * row.pareto / instances),
               util::CsvWriter::format(100.0 * row.envy_free / instances),
               util::CsvWriter::format(100.0 * row.sharing / instances),
               util::CsvWriter::format(profitable[r]) + "/" +
                   util::CsvWriter::format(probes[r])});
  }
  table.print(std::cout);
  return 0;
}
