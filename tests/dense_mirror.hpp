// dense_mirror.hpp — dense n×m views of the sparse model, for tests.
//
// Problems and allocations keep only CSR rows; tests that state an
// instance or check a result entry by entry read them through these
// helpers, which densify row by row.
#pragma once

#include <cstddef>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "flow/transport.hpp"

namespace amf::test {

/// The CSR of a dense demand matrix over `sites` sites (validated: every
/// row `sites` wide, entries finite and >= 0).
inline flow::DemandRows rows_of(const flow::Matrix& demands,
                                std::size_t sites) {
  return flow::DemandRows::from_dense(demands, static_cast<int>(sites));
}

inline flow::Matrix dense(const flow::DemandRows& rows) {
  flow::Matrix out;
  for (int j = 0; j < rows.rows(); ++j)
    out.push_back(rows[static_cast<std::size_t>(j)]);
  return out;
}

inline flow::Matrix dense(const flow::ShareRows& rows) {
  flow::Matrix out;
  for (int j = 0; j < rows.rows(); ++j) out.push_back(rows.dense_row(j));
  return out;
}

inline core::Matrix dense_shares(const core::Allocation& a) {
  return dense(a.shares());
}

/// Effective demands, n×m.
inline core::Matrix dense_demands(const core::AllocationProblem& p) {
  return dense(p.demands());
}

/// Effective workloads, n×m; empty without workloads.
inline core::Matrix dense_workloads(const core::AllocationProblem& p) {
  core::Matrix out;
  if (!p.has_workloads()) return out;
  for (int j = 0; j < p.jobs(); ++j) {
    out.emplace_back(static_cast<std::size_t>(p.sites()), 0.0);
    for (int s = 0; s < p.sites(); ++s)
      out.back()[static_cast<std::size_t>(s)] = p.workload(j, s);
  }
  return out;
}

/// Raw task-unit demands and workloads, n×m (workloads empty without
/// them).
inline core::Matrix dense_task_demands(const core::AllocationProblem& p) {
  core::Matrix out;
  for (int j = 0; j < p.jobs(); ++j) out.push_back(p.task_demand_row(j));
  return out;
}

inline core::Matrix dense_task_workloads(const core::AllocationProblem& p) {
  core::Matrix out;
  if (!p.has_workloads()) return out;
  for (int j = 0; j < p.jobs(); ++j) out.push_back(p.task_workload_row(j));
  return out;
}

}  // namespace amf::test
