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
  return progressive_fill(problem, sharing_floors(problem), name(), kEps);
}

}  // namespace amf::core
