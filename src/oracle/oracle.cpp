#include "oracle/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/simplex.hpp"
#include "util/error.hpp"

namespace amf::oracle {

namespace {

/// Sorted-ascending lexicographic "greater" for normalized vectors.
bool lex_greater(const std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i] + 1e-12) return true;
    if (a[i] < b[i] - 1e-12) return false;
  }
  return false;
}

}  // namespace

std::vector<double> brute_force_max_min_aggregates(
    const core::AllocationProblem& problem, long long max_points) {
  const int n = problem.jobs();
  const int m = problem.sites();
  AMF_REQUIRE(n > 0, "brute force needs at least one job");

  struct Cell {
    int job;
    int site;
    int cap;  // integer upper bound for this cell
  };
  std::vector<Cell> cells;
  long long points = 1;
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s) {
      int cap = static_cast<int>(
          std::floor(std::min(problem.demand(j, s), problem.capacity(s)) +
                     1e-9));
      if (cap > 0) {
        cells.push_back({j, s, cap});
        points *= (cap + 1);
        AMF_REQUIRE(points <= max_points,
                    "brute-force grid too large for this instance");
      }
    }

  std::vector<int> site_left(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s)
    site_left[static_cast<std::size_t>(s)] =
        static_cast<int>(std::floor(problem.capacity(s) + 1e-9));

  std::vector<double> agg(static_cast<std::size_t>(n), 0.0);
  std::vector<double> best_sorted;
  std::vector<double> best_agg(static_cast<std::size_t>(n), 0.0);

  auto consider = [&] {
    std::vector<double> sorted(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      sorted[static_cast<std::size_t>(j)] =
          agg[static_cast<std::size_t>(j)] / problem.weight(j);
    std::sort(sorted.begin(), sorted.end());
    if (best_sorted.empty() || lex_greater(sorted, best_sorted)) {
      best_sorted = std::move(sorted);
      best_agg = agg;
    }
  };

  // Depth-first enumeration over all integer values of every cell.
  auto recurse = [&](auto&& self, std::size_t idx) -> void {
    if (idx == cells.size()) {
      consider();
      return;
    }
    const Cell& c = cells[idx];
    int limit = std::min(c.cap, site_left[static_cast<std::size_t>(c.site)]);
    for (int v = 0; v <= limit; ++v) {
      agg[static_cast<std::size_t>(c.job)] += v;
      site_left[static_cast<std::size_t>(c.site)] -= v;
      self(self, idx + 1);
      agg[static_cast<std::size_t>(c.job)] -= v;
      site_left[static_cast<std::size_t>(c.site)] += v;
    }
  };
  recurse(recurse, 0);
  return best_agg;
}

StrategyProbeResult probe_strategy_proofness(
    const core::AllocationProblem& problem, const core::Allocator& allocator,
    int job, int trials, util::Rng& rng, double tol) {
  AMF_REQUIRE(job >= 0 && job < problem.jobs(), "job index out of range");
  AMF_REQUIRE(trials >= 0, "trials must be >= 0");

  const core::Allocation truthful = allocator.allocate(problem);
  const double baseline = truthful.aggregate(job);
  const int m = problem.sites();

  StrategyProbeResult result;
  result.trials = trials;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> report(static_cast<std::size_t>(m));
    // Three misreport families, mixed at random: global scaling,
    // per-site jitter with hiding, and inflation toward site capacity.
    int family = static_cast<int>(rng.uniform_index(3));
    for (int s = 0; s < m; ++s) {
      double d = problem.demand(job, s);
      double r = d;
      switch (family) {
        case 0:  // scale everything by a common factor in [0, 3]
          r = d * rng.uniform(0.0, 3.0);
          break;
        case 1:  // per-site jitter; hide a site with probability 0.3
          r = rng.bernoulli(0.3) ? 0.0 : d * rng.uniform(0.2, 2.0);
          break;
        default:  // claim demand wherever capacity exists
          r = rng.bernoulli(0.5) ? problem.capacity(s)
                                 : d * rng.uniform(0.5, 1.5);
          break;
      }
      report[static_cast<std::size_t>(s)] = r;
    }

    auto lied = problem.with_reported_demands(job, report);
    core::Allocation manipulated = allocator.allocate(lied);
    double usable = 0.0;
    for (int s = 0; s < m; ++s)
      usable += std::min(manipulated.share(job, s), problem.demand(job, s));

    double gain = usable - baseline;
    result.max_gain = std::max(result.max_gain, gain);
    if (gain > tol * problem.scale()) ++result.profitable;
  }
  return result;
}

core::Allocation min_churn_lp(const core::AllocationProblem& problem,
                              const core::Allocation& target,
                              const core::Allocation& previous, double eps) {
  const int n = problem.jobs();
  const int m = problem.sites();
  AMF_REQUIRE(target.jobs() == n, "target/problem size mismatch");
  AMF_REQUIRE(previous.jobs() == n && previous.sites() == target.sites(),
              "previous/target shape mismatch");
  if (n == 0) return core::Allocation(core::Matrix{}, "stable-lp");

  // Variables: a[j][s] for cells with positive demand, then one churn
  // variable c[j][s] per cell with |a - prev| >= c via two inequalities.
  std::vector<std::vector<int>> var_of(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(m), -1));
  int cells = 0;
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s)
      if (problem.demand(j, s) > 0.0) {
        var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            cells++;
      }
  const int vars = 2 * cells;  // [0, cells) shares, [cells, 2*cells) churn

  lp::LinearProgram program;
  program.variables = vars;
  program.objective.assign(static_cast<std::size_t>(vars), 0.0);
  for (int c = cells; c < vars; ++c)
    program.objective[static_cast<std::size_t>(c)] = -1.0;  // min Σ churn

  auto cell_row = [&](int width) {
    lp::Row row;
    row.coeffs.assign(static_cast<std::size_t>(width), 0.0);
    return row;
  };

  // Exact per-job aggregates.
  for (int j = 0; j < n; ++j) {
    auto row = cell_row(vars);
    bool any = false;
    for (int s = 0; s < m; ++s) {
      int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v >= 0) {
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        any = true;
      }
    }
    double agg = target.aggregate(j);
    AMF_REQUIRE(any || agg <= eps * problem.scale(),
                "job with positive aggregate but no demand cells");
    if (!any) continue;
    row.type = lp::RowType::kEq;
    row.rhs = agg;
    program.rows.push_back(std::move(row));
  }
  // Site capacities.
  for (int s = 0; s < m; ++s) {
    auto row = cell_row(vars);
    bool any = false;
    for (int j = 0; j < n; ++j) {
      int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v >= 0) {
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        any = true;
      }
    }
    if (!any) continue;
    row.type = lp::RowType::kLe;
    row.rhs = problem.capacity(s);
    program.rows.push_back(std::move(row));
  }
  // Demand caps and the churn envelope.
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s) {
      int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v < 0) continue;
      double prev = previous.share(j, s);
      {
        auto row = cell_row(vars);
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        row.type = lp::RowType::kLe;
        row.rhs = problem.demand(j, s);
        program.rows.push_back(std::move(row));
      }
      {
        // a - c <= prev  (covers a above prev)
        auto row = cell_row(vars);
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        row.coeffs[static_cast<std::size_t>(cells + v)] = -1.0;
        row.type = lp::RowType::kLe;
        row.rhs = prev;
        program.rows.push_back(std::move(row));
      }
      {
        // a + c >= prev  (covers a below prev)
        auto row = cell_row(vars);
        row.coeffs[static_cast<std::size_t>(v)] = 1.0;
        row.coeffs[static_cast<std::size_t>(cells + v)] = 1.0;
        row.type = lp::RowType::kGe;
        row.rhs = prev;
        program.rows.push_back(std::move(row));
      }
    }

  auto result = lp::solve(program, eps);
  if (result.status == lp::LpStatus::kDeadlineExceeded)
    throw util::DeadlineExceeded("stability LP interrupted by its stop token");
  AMF_REQUIRE(result.status == lp::LpStatus::kOptimal,
              "target aggregates must be realizable");

  core::Matrix shares(static_cast<std::size_t>(n),
                      std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < n; ++j)
    for (int s = 0; s < m; ++s) {
      int v = var_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      if (v >= 0)
        shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            std::max(0.0, result.x[static_cast<std::size_t>(v)]);
    }
  return core::Allocation(std::move(shares), "stable-lp");
}

}  // namespace amf::oracle
