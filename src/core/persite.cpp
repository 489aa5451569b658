#include "core/persite.hpp"

#include "core/single_site.hpp"
#include "core/workspace.hpp"
#include "util/error.hpp"

namespace amf::core {

std::vector<double> water_fill_sites(const flow::DemandRows& rows,
                                     const std::vector<double>& caps,
                                     const std::vector<double>& weights,
                                     const std::vector<double>& capacity) {
  AMF_REQUIRE(caps.size() == rows.entries.size() &&
                  weights.size() == static_cast<std::size_t>(rows.rows()),
              "one cap per demand entry and one weight per row required");
  // Each site's (row, entry) pairs, in ascending row order.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> at_site(
      capacity.size());
  for (int j = 0; j < rows.rows(); ++j)
    for (std::size_t k : rows.indices(j))
      at_site[static_cast<std::size_t>(rows.entries[k].site)].emplace_back(
          static_cast<std::size_t>(j), k);
  // Each site fills over every row, a row without an entry there taking
  // cap 0: water_fill's weight sum and its sort then see exactly what a
  // dense per-site fill sees, so the result is bit-identical to it for
  // any weights.
  std::vector<double> out(caps.size(), 0.0), column(weights.size(), 0.0);
  for (std::size_t s = 0; s < capacity.size(); ++s) {
    if (at_site[s].empty()) continue;
    for (const auto& [j, k] : at_site[s]) column[j] = caps[k];
    const auto filled = water_fill(column, weights, capacity[s]);
    for (const auto& [j, k] : at_site[s]) {
      out[k] = filled[j];
      column[j] = 0.0;
    }
  }
  return out;
}

Allocation PerSiteMaxMin::allocate_into(
    const AllocationProblem& problem,
    std::vector<double>& caps_scratch) const {
  const flow::DemandRows& rows = problem.demands();
  caps_scratch.resize(rows.entries.size());
  for (std::size_t k = 0; k < rows.entries.size(); ++k)
    caps_scratch[k] = rows.entries[k].value;
  flow::ShareRows shares = flow::ShareRows::zeros_on(rows);
  shares.values = water_fill_sites(rows, caps_scratch, problem.weights(),
                                   problem.capacities());
  return Allocation(std::move(shares), name());
}

Allocation PerSiteMaxMin::allocate(const AllocationProblem& problem) const {
  std::vector<double> caps;
  return allocate_into(problem, caps);
}

Allocation PerSiteMaxMin::allocate(const AllocationProblem& problem,
                                   SolverWorkspace& workspace) const {
  workspace.report().reset();
  workspace.report().warm = true;
  return allocate_into(problem,
                       workspace.scratch(problem.demands().entries.size()));
}

}  // namespace amf::core
