// multiresource_cluster — the DRF extension in action: CPU/memory tasks
// over a federation of clusters, aggregate DRF vs per-cluster DRF.
//
//   $ ./multiresource_cluster
//
// Recreates the canonical DRF setting (Leontief tasks with CPU/memory
// profiles) and then distributes it: the same tenants now hold data on
// different subsets of three clusters. Per-cluster DRF (what running
// Mesos/YARN independently per cluster does) is compared against
// Aggregate DRF on global dominant shares — the multi-resource analogue
// of the paper's AMF-vs-per-site-max-min comparison.
#include <iostream>

#include "amf.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace amf;

  // Three clusters with different CPU/memory balances.
  std::vector<std::vector<double>> capacities{
      {36, 72},   // cluster 0: memory-rich (hot: most tenants have data here)
      {48, 48},   // cluster 1: balanced
      {24, 96},   // cluster 2: memory-heavy archive
  };
  // Six tenants; per-task <CPU, GB> profiles.
  std::vector<std::vector<double>> profiles{
      {1, 4},  // memory-bound analytics
      {3, 1},  // CPU-bound encoding
      {2, 2},  // balanced ETL
      {1, 1},  // lightweight serving
      {4, 2},  // CPU-heavy training
      {1, 6},  // in-memory cache
  };
  // Task caps encode data locality: tenants 0-2 are captive to the hot
  // cluster; 3-5 can run in two or three places.
  core::Matrix caps{
      {40, 0, 0},    //
      {40, 0, 0},    //
      {40, 0, 0},    //
      {40, 40, 0},   //
      {30, 30, 30},  //
      {20, 0, 30},   //
  };
  auto problem = core::AllocationProblem::multi(caps, capacities, profiles);

  std::cout << "federated multi-resource cluster: " << problem.jobs()
            << " tenants, " << problem.sites() << " clusters, "
            << problem.resources() << " resources (CPU, memory)\n\n";

  multiresource::PerSiteDrfAllocator persite;
  multiresource::AggregateDrfAllocator adrf;
  auto x_base = persite.allocate(problem);
  auto x_adrf = adrf.allocate(problem);
  auto s_base = multiresource::dominant_shares(problem, x_base);
  auto s_adrf = multiresource::dominant_shares(problem, x_adrf);

  util::Table table({"tenant", "dominant resource", "per-cluster DRF share",
                     "aggregate DRF share"});
  const char* kResources[] = {"CPU", "memory"};
  for (int j = 0; j < problem.jobs(); ++j)
    table.row({"tenant " + std::to_string(j),
               kResources[multiresource::dominant_resource(problem, j)],
               util::CsvWriter::format(s_base[static_cast<std::size_t>(j)]),
               util::CsvWriter::format(s_adrf[static_cast<std::size_t>(j)])});
  table.print(std::cout);

  std::cout << "\nbalance of dominant shares:\n";
  util::Table balance({"policy", "jain index", "min/max", "min share"});
  auto add_row = [&](const std::string& name,
                     const std::vector<double>& shares) {
    double lo = shares[0];
    for (double v : shares) lo = std::min(lo, v);
    balance.row({name, util::CsvWriter::format(util::jain_index(shares)),
                 util::CsvWriter::format(util::min_max_ratio(shares)),
                 util::CsvWriter::format(lo)});
  };
  add_row("per-cluster DRF", s_base);
  add_row("aggregate DRF", s_adrf);
  balance.print(std::cout);

  std::cout << "\nverified: aggregate DRF vector is leximin-optimal = "
            << (multiresource::is_aggregate_drf_fair(problem, s_adrf)
                    ? "yes"
                    : "no")
            << "\n"
            << "\nthe captive tenants (0-2) split the hot cluster under "
               "both policies, but per-cluster DRF also hands the hot "
               "cluster's capacity to the flexible tenants (3-5) who could "
               "have been served elsewhere — aggregate DRF routes them "
               "away and lifts the captive tenants' shares.\n";
  return 0;
}
