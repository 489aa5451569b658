#include "core/eamf.hpp"

#include "core/amf.hpp"

namespace amf::core {

std::vector<double> EnhancedAmfAllocator::sharing_floors(
    const AllocationProblem& problem) {
  return problem.equal_split_shares();
}

Allocation EnhancedAmfAllocator::allocate(
    const AllocationProblem& problem) const {
  return progressive_fill(problem, sharing_floors(problem), name(), eps_);
}

}  // namespace amf::core
