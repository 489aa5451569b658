// persite.hpp — the paper's baseline: per-site max-min fairness (PSMF).
//
// Each site independently divides its capacity max-min fairly among the
// jobs demanding resource there, ignoring what those jobs receive
// elsewhere. Jobs whose workload concentrates on hot (contended) sites end
// up with small aggregates while jobs on cold sites are barely throttled —
// the imbalance AMF is designed to remove.
#pragma once

#include "core/allocation.hpp"

namespace amf::core {

/// water_fill at every site s over every row: caps `caps[k]` on the rows'
/// entries at s (aligned with `rows.entries`, as is the result), 0 off
/// them. Bit-identical to a dense per-site water_fill.
std::vector<double> water_fill_sites(const flow::DemandRows& rows,
                                     const std::vector<double>& caps,
                                     const std::vector<double>& weights,
                                     const std::vector<double>& capacity);

/// Per-site (weighted) max-min fair allocator.
class PerSiteMaxMin final : public Allocator {
 public:
  Allocation allocate(const AllocationProblem& problem) const override;

  /// Workspace overload: reuses the workspace's scratch buffer for the
  /// per-entry caps (identical results, fewer allocations).
  Allocation allocate(const AllocationProblem& problem,
                      SolverWorkspace& workspace) const override;

  std::string name() const override { return "PSMF"; }

 private:
  Allocation allocate_into(const AllocationProblem& problem,
                           std::vector<double>& caps_scratch) const;
};

}  // namespace amf::core
