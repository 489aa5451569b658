#include "lp/leximin.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace amf::lp {

namespace {

/// Phase 1 accepts an absolute infeasibility of up to kFeasibilitySlack·eps
/// (eps = 1e-9 here), so a probe asking a job for less extra quantity than
/// that reads feasible on any polytope: no job would ever freeze, and the
/// fallback would settle everyone at the first level. Probes ask for at
/// least this much.
constexpr double kMinProbeRise = 4.0 * kFeasibilitySlack * 1e-9;

/// The row summing job j's group, `width` columns wide.
Row group_row(const GroupedPolytope& poly, std::size_t job, int width) {
  Row row;
  row.coeffs.assign(static_cast<std::size_t>(width), 0.0);
  for (int v : poly.groups[job]) row.coeffs[static_cast<std::size_t>(v)] = 1.0;
  row.type = RowType::kGe;
  return row;
}

}  // namespace

std::vector<Row> rows_with_floors(const GroupedPolytope& poly,
                                  const std::vector<double>& floors) {
  AMF_REQUIRE(floors.size() == poly.groups.size(),
              "floor vector length != job count");
  std::vector<Row> rows = poly.rows;
  for (std::size_t j = 0; j < floors.size(); ++j) {
    if (floors[j] <= 0.0) continue;
    Row row = group_row(poly, j, poly.variables);
    row.rhs = floors[j];
    rows.push_back(std::move(row));
  }
  return rows;
}

bool floors_feasible(const GroupedPolytope& poly,
                     const std::vector<double>& floors) {
  return feasible(poly.variables, rows_with_floors(poly, floors));
}

std::optional<double> max_common_level(const GroupedPolytope& poly,
                                       const std::vector<double>& rates,
                                       const std::vector<char>& frozen,
                                       const std::vector<double>& floors) {
  const std::size_t n = poly.groups.size();
  AMF_REQUIRE(rates.size() == n && frozen.size() == n && floors.size() == n,
              "level LP vectors must have one entry per job");
  // t is the last variable; the base rows get a zero t column.
  LinearProgram program;
  program.variables = poly.variables + 1;
  const auto t_var = static_cast<std::size_t>(poly.variables);
  program.objective.assign(static_cast<std::size_t>(program.variables), 0.0);
  program.objective[t_var] = 1.0;
  for (Row row : poly.rows) {
    row.coeffs.push_back(0.0);
    program.rows.push_back(std::move(row));
  }
  for (std::size_t j = 0; j < n; ++j) {
    Row row = group_row(poly, j, program.variables);
    if (frozen[j]) {
      if (floors[j] <= 0.0) continue;
      row.rhs = floors[j];
    } else {
      row.coeffs[t_var] = -rates[j];
    }
    program.rows.push_back(std::move(row));
  }
  auto result = solve(program);
  if (result.status != LpStatus::kOptimal) return std::nullopt;
  return result.objective;
}

bool can_rise(const GroupedPolytope& poly, std::vector<double> held, int job,
              double quantity) {
  held[static_cast<std::size_t>(job)] = quantity;
  return floors_feasible(poly, held);
}

std::vector<double> sequential_leximin(const GroupedPolytope& poly,
                                       const std::vector<double>& rates,
                                       const std::vector<double>& rise) {
  const std::size_t n = poly.groups.size();
  AMF_REQUIRE(rates.size() == n && rise.size() == n,
              "rate and rise vectors must have one entry per job");
  std::vector<double> level(n, 0.0);
  std::vector<char> frozen(n, 0);
  std::vector<double> floors(n, 0.0);
  std::size_t unfrozen = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (poly.groups[j].empty())
      frozen[j] = 1;
    else
      ++unfrozen;
  }
  // Every round freezes at least one job, so at most n rounds run.
  while (unfrozen > 0) {
    const auto t = max_common_level(poly, rates, frozen, floors);
    AMF_ASSERT(t.has_value(),
               "leximin level LP must stay feasible (its floors were "
               "attained before)");
    std::vector<double> held(floors);
    for (std::size_t j = 0; j < n; ++j)
      if (!frozen[j]) held[j] = rates[j] * *t * kFloorSlack;
    std::vector<std::size_t> pinned;
    for (std::size_t j = 0; j < n; ++j)
      if (!frozen[j] &&
          !can_rise(poly, held, static_cast<int>(j),
                    rates[j] * *t + std::max(rise[j], kMinProbeRise)))
        pinned.push_back(j);
    if (pinned.empty()) {
      // Numerically fuzzy critical set: settle everyone at the level.
      for (std::size_t j = 0; j < n; ++j)
        if (!frozen[j]) pinned.push_back(j);
    }
    for (std::size_t j : pinned) {
      frozen[j] = 1;
      level[j] = *t;
      floors[j] = held[j];
      --unfrozen;
    }
  }
  return level;
}

}  // namespace amf::lp
