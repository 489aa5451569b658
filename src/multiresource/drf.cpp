#include "multiresource/drf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/single_site.hpp"
#include "lp/leximin.hpp"
#include "util/error.hpp"

namespace amf::multiresource {

namespace {

/// The preconditions every DRF entry point states in drf.hpp.
void require_drf_instance(const core::AllocationProblem& p) {
  AMF_REQUIRE(p.multi_resource(),
              "DRF needs a multi-resource instance (AllocationProblem::multi)");
  for (int j = 0; j < p.jobs(); ++j)
    AMF_REQUIRE(p.weight(j) == 1.0,
                "DRF allocates unweighted jobs (weight of job " +
                    std::to_string(j) + " != 1)");
  for (int r = 0; r < p.resources(); ++r) {
    if (total_capacity(p, r) > 0.0) continue;
    for (int j = 0; j < p.jobs(); ++j)
      AMF_REQUIRE(p.profile(j, r) == 0.0,
                  "a demanded resource must have positive total capacity");
  }
}

/// Largest capacity, task cap or profile entry (>= 1): the scale of the
/// DRF tolerances.
double task_scale(const core::AllocationProblem& p) {
  double scale = 1.0;
  for (int s = 0; s < p.sites(); ++s)
    for (int r = 0; r < p.resources(); ++r)
      scale = std::max(scale, p.capacity(s, r));
  for (int j = 0; j < p.jobs(); ++j) {
    for (int s = 0; s < p.sites(); ++s)
      scale = std::max(scale, p.task_demand(j, s));
    for (int r = 0; r < p.resources(); ++r)
      scale = std::max(scale, p.profile(j, r));
  }
  return scale;
}

/// The Leontief polytope: one variable per (job, site) pair with a
/// positive task cap, grouped per job; rows are per-site per-resource
/// capacities, then per-variable task caps.
struct LeontiefLp {
  explicit LeontiefLp(const core::AllocationProblem& p) {
    poly.groups.resize(static_cast<std::size_t>(p.jobs()));
    for (int j = 0; j < p.jobs(); ++j)
      for (int s = 0; s < p.sites(); ++s)
        if (p.task_demand(j, s) > 0.0) {
          poly.groups[static_cast<std::size_t>(j)].push_back(poly.variables++);
          cells.emplace_back(j, s);
        }
    const auto width = static_cast<std::size_t>(poly.variables);
    for (int s = 0; s < p.sites(); ++s)
      for (int r = 0; r < p.resources(); ++r) {
        lp::Row row;
        row.coeffs.assign(width, 0.0);
        bool any = false;
        for (std::size_t v = 0; v < width; ++v)
          if (cells[v].second == s && p.profile(cells[v].first, r) > 0.0) {
            row.coeffs[v] = p.profile(cells[v].first, r);
            any = true;
          }
        if (!any) continue;
        row.type = lp::RowType::kLe;
        row.rhs = p.capacity(s, r);
        poly.rows.push_back(std::move(row));
      }
    for (std::size_t v = 0; v < width; ++v) {
      lp::Row row;
      row.coeffs.assign(width, 0.0);
      row.coeffs[v] = 1.0;
      row.type = lp::RowType::kLe;
      row.rhs = p.task_demand(cells[v].first, cells[v].second);
      poly.rows.push_back(std::move(row));
    }
  }

  core::Matrix extract(const core::AllocationProblem& p,
                       const std::vector<double>& solution) const {
    core::Matrix x(static_cast<std::size_t>(p.jobs()),
                   std::vector<double>(static_cast<std::size_t>(p.sites()),
                                       0.0));
    for (std::size_t v = 0; v < cells.size(); ++v)
      x[static_cast<std::size_t>(cells[v].first)]
       [static_cast<std::size_t>(cells[v].second)] =
           std::max(0.0, solution[v]);
    return x;
  }

  lp::GroupedPolytope poly;
  std::vector<std::pair<int, int>> cells;  ///< (job, site) of each variable
};

/// Task totals per unit of dominant share: job j's level in the leximin
/// is its aggregate dominant share.
std::vector<double> share_rates(const core::AllocationProblem& p) {
  std::vector<double> rates(static_cast<std::size_t>(p.jobs()));
  for (int j = 0; j < p.jobs(); ++j)
    rates[static_cast<std::size_t>(j)] = 1.0 / dominant_share_per_task(p, j);
  return rates;
}

}  // namespace

double total_capacity(const core::AllocationProblem& problem, int resource) {
  double total = 0.0;
  for (int s = 0; s < problem.sites(); ++s)
    total += problem.capacity(s, resource);
  return total;
}

int dominant_resource(const core::AllocationProblem& problem, int job) {
  int best_r = 0;
  double best = -1.0;
  for (int r = 0; r < problem.resources(); ++r) {
    double pool = total_capacity(problem, r);
    if (pool <= 0.0) continue;
    double share = problem.profile(job, r) / pool;
    if (share > best) {
      best = share;
      best_r = r;
    }
  }
  return best_r;
}

double dominant_share_per_task(const core::AllocationProblem& problem,
                               int job) {
  const int r = dominant_resource(problem, job);
  const double pool = total_capacity(problem, r);
  return pool > 0.0 ? problem.profile(job, r) / pool : 0.0;
}

std::vector<double> dominant_shares(const core::AllocationProblem& problem,
                                    const core::Matrix& x) {
  AMF_REQUIRE(static_cast<int>(x.size()) == problem.jobs(),
              "allocation height != job count");
  std::vector<double> shares(x.size(), 0.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    const auto& row = x[static_cast<std::size_t>(j)];
    AMF_REQUIRE(static_cast<int>(row.size()) == problem.sites(),
                "allocation width != site count");
    double tasks = 0.0;
    for (double v : row) tasks += v;
    shares[static_cast<std::size_t>(j)] =
        tasks * dominant_share_per_task(problem, j);
  }
  return shares;
}

bool feasible(const core::AllocationProblem& problem, const core::Matrix& x,
              double eps) {
  const int n = problem.jobs();
  const int m = problem.sites();
  if (static_cast<int>(x.size()) != n) return false;
  const double tol = eps * task_scale(problem);
  for (int j = 0; j < n; ++j) {
    if (static_cast<int>(x[static_cast<std::size_t>(j)].size()) != m)
      return false;
    for (int s = 0; s < m; ++s) {
      double v = x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v < -tol || v > problem.task_demand(j, s) + tol) return false;
    }
  }
  for (int s = 0; s < m; ++s)
    for (int r = 0; r < problem.resources(); ++r) {
      double used = 0.0;
      for (int j = 0; j < n; ++j)
        used += x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] *
                problem.profile(j, r);
      if (used > problem.capacity(s, r) + tol) return false;
    }
  return true;
}

// ---------------------------------------------------------------------------
// Per-site DRF

core::Matrix PerSiteDrfAllocator::allocate(
    const core::AllocationProblem& problem) const {
  require_drf_instance(problem);
  const int n = problem.jobs();
  const int m = problem.sites();
  core::Matrix x(static_cast<std::size_t>(n),
                 std::vector<double>(static_cast<std::size_t>(m), 0.0));

  // Per-site DRF is the core one-site Leontief water-fill applied
  // independently at every site.
  const double scale = task_scale(problem);
  std::vector<double> task_caps(static_cast<std::size_t>(n));
  for (int s = 0; s < m; ++s) {
    for (int j = 0; j < n; ++j)
      task_caps[static_cast<std::size_t>(j)] = problem.task_demand(j, s);
    auto tasks = core::leontief_water_fill(
        task_caps, problem.profiles(),
        problem.capacity_matrix()[static_cast<std::size_t>(s)], scale, 1e-10);
    for (int j = 0; j < n; ++j)
      x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
          tasks[static_cast<std::size_t>(j)];
  }
  return x;
}

// ---------------------------------------------------------------------------
// Aggregate DRF

core::Matrix AggregateDrfAllocator::allocate(
    const core::AllocationProblem& problem) const {
  require_drf_instance(problem);
  const int n = problem.jobs();
  if (n == 0) return core::Matrix{};
  const LeontiefLp leontief(problem);
  const auto rates = share_rates(problem);

  // Exact lexicographic max-min over the (general, non-polymatroid) LP
  // polytope. The probe step must be small: a job that can still rise by
  // any meaningful share belongs to the next leximin level, not this one.
  std::vector<double> rise(rates.size());
  for (std::size_t j = 0; j < rise.size(); ++j) rise[j] = 1e-5 * rates[j];
  const auto levels = lp::sequential_leximin(leontief.poly, rates, rise);

  // Pareto top-up: among allocations honoring every fair floor, maximize
  // total tasks (efficiency without disturbing fairness floors).
  std::vector<double> floors(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < floors.size(); ++j)
    floors[j] = rates[j] * levels[j] * lp::kFloorSlack;
  lp::LinearProgram program;
  program.variables = leontief.poly.variables;
  program.rows = lp::rows_with_floors(leontief.poly, floors);
  program.objective.assign(static_cast<std::size_t>(program.variables), 1.0);
  auto result = lp::solve(program);
  AMF_ASSERT(result.status == lp::LpStatus::kOptimal,
             "fair floors must remain feasible for the top-up LP");
  return leontief.extract(problem, result.x);
}

bool is_aggregate_drf_fair(const core::AllocationProblem& problem,
                           const std::vector<double>& shares, double tol) {
  // On the Leontief polytope (not a polymatroid) the classical
  // "max-min fair" vector need not exist; the right target is the
  // *leximin* optimum. We verify the Ogryczak sequential
  // characterization with the leximin's own level LP and freeze probe:
  // peeling levels from below, (a) the claimed minimum of the remaining
  // jobs must equal the LP-maximal common minimum, and (b) exactly the
  // jobs that cannot exceed that level (with everyone else held at or
  // above it) may sit on it.
  require_drf_instance(problem);
  const int n = problem.jobs();
  AMF_REQUIRE(static_cast<int>(shares.size()) == n,
              "share vector length != job count");
  if (n == 0) return true;
  const LeontiefLp leontief(problem);
  const auto& poly = leontief.poly;
  const auto rates = share_rates(problem);
  auto tasks_for = [&](std::size_t j, double share) {
    return rates[j] * std::max(0.0, share);
  };

  // 1. The vector itself must be feasible (floors relaxed by tol).
  {
    std::vector<double> floors(static_cast<std::size_t>(n));
    for (std::size_t j = 0; j < floors.size(); ++j)
      floors[j] = tasks_for(j, shares[j] - tol);
    if (!lp::floors_feasible(poly, floors)) return false;
  }

  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<double> frozen_floor(static_cast<std::size_t>(n), 0.0);
  int unfrozen = 0;
  for (std::size_t j = 0; j < frozen.size(); ++j) {
    if (poly.groups[j].empty()) {
      // Structurally zero: its claimed share must be (near) zero.
      if (shares[j] > tol) return false;
      frozen[j] = 1;
    } else {
      ++unfrozen;
    }
  }

  const double probe_step = std::max(tol * 16.0, 1e-4);
  while (unfrozen > 0) {
    double claimed_min = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < frozen.size(); ++j)
      if (!frozen[j]) claimed_min = std::min(claimed_min, shares[j]);

    const auto level = lp::max_common_level(poly, rates, frozen, frozen_floor);
    if (!level) return false;  // frozen floors became infeasible
    if (std::abs(*level - claimed_min) >
        tol * std::max(1.0, claimed_min) + probe_step)
      return false;  // the claimed minimum is not LP-optimal

    // Probe every job sitting on the level; the un-improvable ones are
    // correctly placed, an improvable one means the vector under-serves
    // it. Jobs above the level stay unfrozen for the next peel.
    std::vector<double> held(frozen_floor);
    for (std::size_t j = 0; j < frozen.size(); ++j)
      if (!frozen[j]) held[j] = tasks_for(j, *level - tol);
    int newly = 0;
    for (std::size_t j = 0; j < frozen.size(); ++j) {
      if (frozen[j]) continue;
      if (shares[j] > *level + tol * std::max(1.0, *level) + probe_step)
        continue;  // above this level; peeled later
      if (lp::can_rise(poly, held, static_cast<int>(j),
                       tasks_for(j, *level + probe_step)))
        return false;  // j should exceed the level
      frozen[j] = 1;
      frozen_floor[j] = held[j];
      --unfrozen;
      ++newly;
    }
    if (newly == 0) return false;  // no job on its claimed level
  }
  return true;
}

}  // namespace amf::multiresource
