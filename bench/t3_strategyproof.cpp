// T3 — Strategy-proofness probe table.
//
// Quantifies the best true-utility gain any random misreport achieves
// against each policy (the paper proves the answer is zero for AMF). A
// deliberately manipulable strawman — aggregates proportional to claimed
// demand — is included as a positive control: the probe harness must
// find large gains there, or the zero rows would be meaningless.
#include "common.hpp"
#include "oracle/oracle.hpp"

#include "util/table.hpp"

namespace {

// Positive control: splits each site proportionally to claimed demand.
class ClaimProportional final : public amf::core::Allocator {
 public:
  amf::core::Allocation allocate(
      const amf::core::AllocationProblem& p) const override {
    const int n = p.jobs(), m = p.sites();
    amf::core::Matrix shares(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(m), 0.0));
    for (int s = 0; s < m; ++s) {
      double total = 0.0;
      for (int j = 0; j < n; ++j) total += p.demand(j, s);
      if (total <= 0.0) continue;
      for (int j = 0; j < n; ++j)
        shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            std::min(p.demand(j, s), p.capacity(s) * p.demand(j, s) / total);
    }
    return amf::core::Allocation(std::move(shares), name());
  }
  std::string name() const override { return "claim-proportional"; }
};

}  // namespace

int main() {
  using namespace amf;
  bench::preamble("T3", "max gain from demand misreports (50 probes/job)",
                  {"gain: usable allocation after lying minus truthful "
                   "aggregate, relative to instance scale",
                   "expected: ~0 for AMF/E-AMF/PSMF; large for the strawman"});

  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  core::PerSiteMaxMin psmf;
  ClaimProportional strawman;
  const std::vector<std::pair<std::string, const core::Allocator*>> policies{
      {"AMF", &amf},
      {"E-AMF", &eamf},
      {"PSMF", &psmf},
      {"claim-proportional (control)", &strawman}};

  util::Table table(
      {"policy", "probes", "profitable", "max_relative_gain"});
  util::Rng rng(31337);
  for (const auto& [name, policy] : policies) {
    int probes = 0, profitable = 0;
    double max_gain = 0.0;
    for (int i = 0; i < 10; ++i) {
      auto cfg = workload::property_sweep(
          static_cast<std::uint64_t>(9000 + i));
      cfg.jobs = 6;
      workload::Generator gen(cfg);
      auto problem = gen.generate();
      for (int j = 0; j < problem.jobs(); j += 2) {
        auto result =
            oracle::probe_strategy_proofness(problem, *policy, j, 50, rng,
                                             1e-5);
        probes += result.trials;
        profitable += result.profitable;
        max_gain = std::max(max_gain, result.max_gain / problem.scale());
      }
    }
    table.row({name, util::CsvWriter::format(probes),
               util::CsvWriter::format(profitable),
               util::CsvWriter::format(max_gain)});
  }
  table.print(std::cout);
  return 0;
}
