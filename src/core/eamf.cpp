#include "core/eamf.hpp"

#include "core/amf.hpp"

namespace amf::core {

namespace {
// Flow tolerance of the filling, AmfAllocator's default.
constexpr double kEps = 1e-9;
}  // namespace

std::vector<double> EnhancedAmfAllocator::sharing_floors(
    const AllocationProblem& problem) {
  return problem.equal_split_shares();
}

Allocation EnhancedAmfAllocator::allocate(
    const AllocationProblem& problem) const {
  SolveReport report;
  return allocate_with_report(problem, report);
}

Allocation EnhancedAmfAllocator::allocate_with_report(
    const AllocationProblem& problem, SolveReport& report) const {
  report.reset();
  return progressive_fill(problem, sharing_floors(problem), name(), kEps,
                          flow::LevelMethod::kCutNewton, &report);
}

}  // namespace amf::core
