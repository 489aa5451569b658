// federation_strategyproof — why strategy-proofness matters in a
// multi-cluster federation, demonstrated by attacking the allocators.
//
//   $ ./federation_strategyproof
//
// Several tenants share a federation of clusters. Each tenant reports
// per-cluster demands to the scheduler; nothing stops a tenant from
// lying. This example probes AMF (provably strategy-proof in the paper)
// and a naive claim-proportional policy (gameable) with hundreds of
// random misreports and reports the best gain each tenant could extract.
#include <iostream>

#include "amf.hpp"
#include "oracle/oracle.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

// The gameable baseline: splits each cluster proportionally to claims.
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

  // A federation of 4 clusters shared by 6 tenants with overlapping
  // footprints (demands below true capacity so inflation is tempting).
  core::Matrix demands{
      {60, 40, 0, 0},    //
      {50, 0, 30, 0},    //
      {0, 40, 30, 20},   //
      {40, 40, 40, 40},  //
      {0, 0, 50, 30},    //
      {30, 30, 0, 30},   //
  };
  std::vector<double> capacities{80, 80, 80, 80};
  core::AllocationProblem problem(demands, capacities);

  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  ClaimProportional naive;

  std::cout << "federation: " << problem.jobs() << " tenants over "
            << problem.sites() << " clusters (capacity 80 each)\n\n";

  std::cout << "truthful AMF aggregates:\n";
  auto truthful = amf.allocate(problem);
  util::Table agg({"tenant", "aggregate", "equal-split floor"});
  for (int j = 0; j < problem.jobs(); ++j)
    agg.row_numeric("tenant " + std::to_string(j),
                    {truthful.aggregate(j), problem.equal_split_share(j)});
  agg.print(std::cout);

  std::cout << "\nattacking each policy with 300 random misreports per "
               "tenant:\n";
  util::Table probes(
      {"policy", "tenant", "profitable misreports", "best gain"});
  util::Rng rng(2718);
  const std::vector<std::pair<std::string, const core::Allocator*>> policies{
      {"AMF", &amf}, {"E-AMF", &eamf}, {"claim-proportional", &naive}};
  for (const auto& [name, policy] : policies) {
    for (int tenant = 0; tenant < problem.jobs(); tenant += 2) {
      auto result = oracle::probe_strategy_proofness(problem, *policy,
                                                     tenant, 300, rng, 1e-5);
      probes.row({name, std::to_string(tenant),
                  util::CsvWriter::format(result.profitable),
                  util::CsvWriter::format(result.max_gain)});
    }
  }
  probes.print(std::cout);

  std::cout << "\nAMF and E-AMF admit no profitable misreport; the naive "
               "claim-proportional policy is freely gameable — the reason "
               "fair schedulers insist on strategy-proof allocation.\n";
  return 0;
}
