// leximin.hpp — sequential leximin (Ogryczak) over a grouped polytope.
//
// Every LP leximin of the library runs here: the scalar reference
// (oracle::lp_max_min_aggregates, job aggregates over the transportation
// polytope), aggregate DRF (multiresource::AggregateDrfAllocator, job
// task totals over the Leontief polytope) and the ADRF definitional
// oracle. Each caller describes only its polytope: rows over nonnegative
// variables, and one variable group per job whose sum is the job's
// quantity. Job j's level is its quantity divided by its rate (the weight
// w_j for weighted aggregates, 1/δ_j for dominant shares).
//
// One round maximizes the common level t of the unfrozen jobs with one
// level LP, then freezes exactly the jobs that cannot rise a probe rise
// of quantity above rates[j]·t while every other job holds it (one
// feasibility LP per job). The rise is in quantity units, so scaling every
// rate by one factor leaves the leximin unchanged.
#pragma once

#include <optional>
#include <vector>

#include "lp/simplex.hpp"

namespace amf::lp {

/// {x >= 0 : rows}, with groups[j] the variables that sum to job j's
/// quantity. A job with an empty group is structurally zero.
struct GroupedPolytope {
  int variables = 0;
  std::vector<Row> rows;
  std::vector<std::vector<int>> groups;
};

/// A frozen job re-imposes its floor this hair below its level, so LP
/// noise never rejects a level an earlier LP certified.
inline constexpr double kFloorSlack = 1.0 - 1e-9;

/// The polytope's rows plus, for every job with floors[j] > 0, the row
/// "quantity_j >= floors[j]".
std::vector<Row> rows_with_floors(const GroupedPolytope& poly,
                                  const std::vector<double>& floors);

/// Is the polytope feasible with every job at or above its floor?
bool floors_feasible(const GroupedPolytope& poly,
                     const std::vector<double>& floors);

/// The level LP: the largest t at which every job with frozen[j] == 0
/// reaches quantity rates[j]·t while every frozen job keeps quantity >=
/// floors[j]. nullopt when no such t exists.
std::optional<double> max_common_level(const GroupedPolytope& poly,
                                       const std::vector<double>& rates,
                                       const std::vector<char>& frozen,
                                       const std::vector<double>& floors);

/// The freeze probe: can job `job` reach `quantity` while every other job
/// keeps its entry of `held`?
bool can_rise(const GroupedPolytope& poly, std::vector<double> held, int job,
              double quantity);

/// The leximin optimum's level of every job (its quantity is
/// rates[j]·level[j]); structurally zero jobs get 0. rise[j] is job j's
/// freeze probe in quantity units: a job that can gain more than rise[j]
/// above rates[j]·t belongs to a later level. (A probe never asks for less
/// extra quantity than a few times the simplex's absolute feasibility
/// slack, which it could not tell from feasible.)
std::vector<double> sequential_leximin(const GroupedPolytope& poly,
                                       const std::vector<double>& rates,
                                       const std::vector<double>& rise);

}  // namespace amf::lp
