// Tests for the simplex substrate: textbook LPs with known optima,
// infeasible/unbounded detection, equality handling, degenerate cases,
// and randomized cross-checks against brute-force vertex enumeration;
// and for the sequential leximin built on it.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "lp/leximin.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace amf::lp {
namespace {

Row row(std::vector<double> coeffs, RowType type, double rhs) {
  return Row{std::move(coeffs), type, rhs};
}

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), z = 36.
  LinearProgram p;
  p.variables = 2;
  p.objective = {3, 5};
  p.rows = {row({1, 0}, RowType::kLe, 4), row({0, 2}, RowType::kLe, 12),
            row({3, 2}, RowType::kLe, 18)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-9);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 6.0, 1e-9);
}

TEST(Simplex, SingleVariable) {
  LinearProgram p;
  p.variables = 1;
  p.objective = {1};
  p.rows = {row({2}, RowType::kLe, 10)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y == 3, x <= 2 -> z = 3 with x <= 2.
  LinearProgram p;
  p.variables = 2;
  p.objective = {1, 1};
  p.rows = {row({1, 1}, RowType::kEq, 3), row({1, 0}, RowType::kLe, 2)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 3.0, 1e-9);
  EXPECT_LE(r.x[0], 2.0 + 1e-9);
}

TEST(Simplex, GreaterEqualNeedsPhase1) {
  // min x (== max -x) s.t. x >= 3 -> x = 3.
  LinearProgram p;
  p.variables = 1;
  p.objective = {-1};
  p.rows = {row({1}, RowType::kGe, 3)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram p;
  p.variables = 1;
  p.rows = {row({1}, RowType::kLe, 1), row({1}, RowType::kGe, 2)};
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualities) {
  LinearProgram p;
  p.variables = 2;
  p.rows = {row({1, 1}, RowType::kEq, 2), row({1, 1}, RowType::kEq, 3)};
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram p;
  p.variables = 2;
  p.objective = {1, 0};
  p.rows = {row({0, 1}, RowType::kLe, 1)};
  EXPECT_EQ(solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -2 with x, y >= 0 means y >= x + 2.
  LinearProgram p;
  p.variables = 2;
  p.objective = {1, -1};  // max x - y -> pushed against the constraint
  p.rows = {row({1, -1}, RowType::kLe, -2), row({0, 1}, RowType::kLe, 5)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-9);
  EXPECT_NEAR(r.x[1] - r.x[0], 2.0, 1e-9);
}

TEST(Simplex, PureFeasibilityProblem) {
  std::vector<Row> rows{row({1, 1}, RowType::kGe, 2),
                        row({1, 0}, RowType::kLe, 3),
                        row({0, 1}, RowType::kLe, 3)};
  std::vector<double> witness;
  EXPECT_TRUE(feasible(2, rows, &witness));
  ASSERT_EQ(witness.size(), 2u);
  EXPECT_GE(witness[0] + witness[1], 2.0 - 1e-9);
  EXPECT_LE(witness[0], 3.0 + 1e-9);
  EXPECT_LE(witness[1], 3.0 + 1e-9);
}

TEST(Simplex, RedundantConstraintsSurvive) {
  LinearProgram p;
  p.variables = 2;
  p.objective = {1, 1};
  p.rows = {row({1, 1}, RowType::kLe, 4), row({1, 1}, RowType::kLe, 4),
            row({2, 2}, RowType::kEq, 8)};  // forces the boundary
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple constraints meeting at the optimum (classic degeneracy).
  LinearProgram p;
  p.variables = 2;
  p.objective = {1, 1};
  p.rows = {row({1, 0}, RowType::kLe, 1), row({0, 1}, RowType::kLe, 1),
            row({1, 1}, RowType::kLe, 2), row({2, 1}, RowType::kLe, 3),
            row({1, 2}, RowType::kLe, 3)};
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(Simplex, ValidatesInput) {
  LinearProgram p;
  p.variables = 2;
  p.objective = {1};  // wrong length
  EXPECT_THROW(solve(p), util::ContractError);
  p.objective = {1, 1};
  p.rows = {row({1}, RowType::kLe, 1)};  // wrong width
  EXPECT_THROW(solve(p), util::ContractError);
}

// Brute force for 2-variable LPs: enumerate all constraint-pair
// intersections plus axis intersections, keep feasible vertices.
double brute_force_2d(const LinearProgram& p) {
  std::vector<std::array<double, 3>> lines;  // a x + b y = c
  for (const auto& r : p.rows)
    lines.push_back({r.coeffs[0], r.coeffs[1], r.rhs});
  lines.push_back({1, 0, 0});  // x = 0
  lines.push_back({0, 1, 0});  // y = 0

  auto feasible_point = [&](double x, double y) {
    if (x < -1e-9 || y < -1e-9) return false;
    for (const auto& r : p.rows) {
      double lhs = r.coeffs[0] * x + r.coeffs[1] * y;
      if (r.type == RowType::kLe && lhs > r.rhs + 1e-7) return false;
      if (r.type == RowType::kGe && lhs < r.rhs - 1e-7) return false;
      if (r.type == RowType::kEq && std::abs(lhs - r.rhs) > 1e-7)
        return false;
    }
    return true;
  };

  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < lines.size(); ++i)
    for (std::size_t k = i + 1; k < lines.size(); ++k) {
      double det = lines[i][0] * lines[k][1] - lines[k][0] * lines[i][1];
      if (std::abs(det) < 1e-12) continue;
      double x = (lines[i][2] * lines[k][1] - lines[k][2] * lines[i][1]) / det;
      double y = (lines[i][0] * lines[k][2] - lines[k][0] * lines[i][2]) / det;
      if (feasible_point(x, y))
        best = std::max(best, p.objective[0] * x + p.objective[1] * y);
    }
  return best;
}

class SimplexRandom2D : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom2D, MatchesVertexEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  LinearProgram p;
  p.variables = 2;
  p.objective = {rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0)};
  // Bounded feasible region: box plus random cuts.
  p.rows = {row({1, 0}, RowType::kLe, rng.uniform(1.0, 8.0)),
            row({0, 1}, RowType::kLe, rng.uniform(1.0, 8.0))};
  int cuts = static_cast<int>(rng.uniform_index(4));
  for (int i = 0; i < cuts; ++i)
    p.rows.push_back(row({rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)},
                         RowType::kLe, rng.uniform(1.0, 10.0)));
  auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(r.objective, std::max(0.0, brute_force_2d(p)), 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom2D, ::testing::Range(0, 40));

class SimplexRandomFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomFeasibility, WitnessActuallySatisfiesRows) {
  util::Rng rng(static_cast<std::uint64_t>(1700 + GetParam()));
  const int n = 4 + static_cast<int>(rng.uniform_index(4));
  std::vector<Row> rows;
  // Random <= rows with positive rhs are always feasible at 0; add >=
  // rows derived from a known feasible point so the system stays
  // feasible and phase 1 has real work to do.
  std::vector<double> point(static_cast<std::size_t>(n));
  for (auto& v : point) v = rng.uniform(0.0, 3.0);
  for (int i = 0; i < 6; ++i) {
    Row r;
    r.coeffs.resize(static_cast<std::size_t>(n));
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      r.coeffs[static_cast<std::size_t>(j)] = rng.uniform(0.0, 2.0);
      lhs += r.coeffs[static_cast<std::size_t>(j)] *
             point[static_cast<std::size_t>(j)];
    }
    if (rng.bernoulli(0.5)) {
      r.type = RowType::kLe;
      r.rhs = lhs + rng.uniform(0.0, 2.0);
    } else {
      r.type = RowType::kGe;
      r.rhs = std::max(0.0, lhs - rng.uniform(0.0, 2.0));
    }
    rows.push_back(std::move(r));
  }
  std::vector<double> witness;
  ASSERT_TRUE(feasible(n, rows, &witness)) << "seed " << GetParam();
  for (const auto& r : rows) {
    double lhs = 0.0;
    for (int j = 0; j < n; ++j)
      lhs += r.coeffs[static_cast<std::size_t>(j)] *
             witness[static_cast<std::size_t>(j)];
    if (r.type == RowType::kLe) {
      EXPECT_LE(lhs, r.rhs + 1e-6);
    }
    if (r.type == RowType::kGe) {
      EXPECT_GE(lhs, r.rhs - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomFeasibility,
                         ::testing::Range(0, 40));

TEST(Simplex, IterationBudgetSurfacesAsStatus) {
  // A healthy LP starved of pivots must report kIterationLimit instead
  // of throwing: the caller decides whether to retry or fall back.
  LinearProgram p;
  p.variables = 3;
  p.objective = {3, 5, 4};
  p.rows = {row({1, 1, 1}, RowType::kLe, 10), row({2, 1, 0}, RowType::kLe, 8),
            row({0, 1, 3}, RowType::kLe, 9)};
  auto starved = solve(p, 1e-9, 1);
  EXPECT_EQ(starved.status, LpStatus::kIterationLimit);
  // With the default budget the same LP solves normally.
  auto r = solve(p);
  EXPECT_EQ(r.status, LpStatus::kOptimal);
}

TEST(Simplex, RejectsNonPositiveIterationBudget) {
  LinearProgram p;
  p.variables = 1;
  p.objective = {1};
  p.rows = {row({1}, RowType::kLe, 1)};
  EXPECT_THROW(solve(p, 1e-9, 0), util::ContractError);
  EXPECT_THROW(solve(p, 1e-9, -5), util::ContractError);
}

// Two jobs on one unit pool; job 0 may take at most 0.25 and job 2 has
// no variables: x0 <= 0.25, x0 + x1 <= 1.
GroupedPolytope shared_pool() {
  GroupedPolytope poly;
  poly.variables = 2;
  poly.rows = {row({1, 0}, RowType::kLe, 0.25), row({1, 1}, RowType::kLe, 1)};
  poly.groups = {{0}, {1}, {}};
  return poly;
}

TEST(Leximin, CappedJobFreezesFirstAndTheRestRises) {
  const auto levels = sequential_leximin(shared_pool(), {1, 1, 1}, {1e-6, 1e-6, 1e-6});
  ASSERT_EQ(levels.size(), 3u);
  // The rise is below the simplex's feasibility slack: the probe still
  // asks for enough to tell the capped job from the free one.
  EXPECT_NEAR(levels[0], 0.25, 1e-6);
  EXPECT_NEAR(levels[1], 0.75, 1e-6);
  EXPECT_EQ(levels[2], 0.0);  // structurally zero
}

TEST(Leximin, RatesScaleQuantitiesAtACommonLevel) {
  // x0 + x1 <= 3 with rates (1, 2): both reach level 1 (quantities 1, 2).
  GroupedPolytope poly;
  poly.variables = 2;
  poly.rows = {row({1, 1}, RowType::kLe, 3)};
  poly.groups = {{0}, {1}};
  const auto levels = sequential_leximin(poly, {1, 2}, {1e-6, 1e-6});
  EXPECT_NEAR(levels[0], 1.0, 1e-6);
  EXPECT_NEAR(levels[1], 1.0, 1e-6);
}

TEST(Leximin, ScalingEveryRateLeavesQuantitiesUnchanged) {
  // x0 <= 0.4999, x0 + x1 <= 1. The rise is in quantity units, so rates of
  // 1000 must not freeze job 1 short of the 0.5001 left to it.
  GroupedPolytope poly;
  poly.variables = 2;
  poly.rows = {row({1, 0}, RowType::kLe, 0.4999),
               row({1, 1}, RowType::kLe, 1)};
  poly.groups = {{0}, {1}};
  for (double rate : {1.0, 1000.0, 1e6}) {
    const auto levels = sequential_leximin(poly, {rate, rate}, {1e-6, 1e-6});
    EXPECT_NEAR(rate * levels[0], 0.4999, 1e-6) << "rate " << rate;
    EXPECT_NEAR(rate * levels[1], 0.5001, 1e-6) << "rate " << rate;
  }
}

TEST(Leximin, LevelLpAndFreezeProbe) {
  const auto poly = shared_pool();
  const std::vector<double> rates{1, 1, 1};
  // Nothing frozen: the common level is job 0's cap.
  auto level = max_common_level(poly, rates, {0, 0, 1}, {0, 0, 0});
  ASSERT_TRUE(level.has_value());
  EXPECT_NEAR(*level, 0.25, 1e-6);
  // With job 0 frozen at its cap, job 1 rises to the rest of the pool.
  level = max_common_level(poly, rates, {1, 0, 1}, {0.25, 0, 0});
  ASSERT_TRUE(level.has_value());
  EXPECT_NEAR(*level, 0.75, 1e-6);
  // A frozen floor above the cap leaves no level at all.
  EXPECT_FALSE(max_common_level(poly, rates, {1, 0, 1}, {0.5, 0, 0}));
  // Holding job 1 at 0.25, job 0 cannot pass its cap but job 1 can rise.
  EXPECT_FALSE(can_rise(poly, {0.25, 0.25, 0}, 0, 0.26));
  EXPECT_TRUE(can_rise(poly, {0.25, 0.25, 0}, 1, 0.5));
  EXPECT_TRUE(floors_feasible(poly, {0.25, 0.75, 0}));
  EXPECT_FALSE(floors_feasible(poly, {0.25, 0.8, 0}));
}

}  // namespace
}  // namespace amf::lp
