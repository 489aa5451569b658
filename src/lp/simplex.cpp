#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace amf::lp {

namespace {

/// Dense two-phase tableau. Columns: [structural | slack/surplus |
/// artificial | rhs]. basis_[i] is the column basic in row i.
/// Outcome of one optimize() run on the tableau.
enum class PivotOutcome { kOptimal, kUnbounded, kIterationLimit };

class Tableau {
 public:
  Tableau(const LinearProgram& program, double eps, long max_iterations)
      : eps_(eps), budget_(max_iterations) {
    const int n = program.variables;
    AMF_REQUIRE(n >= 0, "negative variable count");
    AMF_REQUIRE(program.objective.empty() ||
                    static_cast<int>(program.objective.size()) == n,
                "objective length != variable count");

    // Count auxiliary columns (normalize rhs sign first).
    rows_.reserve(program.rows.size());
    int slack_count = 0, art_count = 0;
    for (const auto& row : program.rows) {
      AMF_REQUIRE(static_cast<int>(row.coeffs.size()) == n,
                  "constraint width != variable count");
      Row r = row;
      if (r.rhs < 0.0) {
        for (auto& c : r.coeffs) c = -c;
        r.rhs = -r.rhs;
        if (r.type == RowType::kLe)
          r.type = RowType::kGe;
        else if (r.type == RowType::kGe)
          r.type = RowType::kLe;
      }
      if (r.type == RowType::kLe) {
        ++slack_count;
      } else if (r.type == RowType::kGe) {
        ++slack_count;
        ++art_count;
      } else {
        ++art_count;
      }
      rows_.push_back(std::move(r));
    }

    n_struct_ = n;
    art_begin_ = n + slack_count;
    cols_ = n + slack_count + art_count;
    const std::size_t width = static_cast<std::size_t>(cols_) + 1;

    tab_.assign(rows_.size(), std::vector<double>(width, 0.0));
    basis_.assign(rows_.size(), -1);
    int next_slack = n, next_art = art_begin_;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      auto& t = tab_[i];
      const auto& r = rows_[i];
      for (int j = 0; j < n; ++j) t[static_cast<std::size_t>(j)] = r.coeffs[static_cast<std::size_t>(j)];
      t[width - 1] = r.rhs;
      switch (r.type) {
        case RowType::kLe:
          t[static_cast<std::size_t>(next_slack)] = 1.0;
          basis_[i] = next_slack++;
          break;
        case RowType::kGe:
          t[static_cast<std::size_t>(next_slack++)] = -1.0;
          t[static_cast<std::size_t>(next_art)] = 1.0;
          basis_[i] = next_art++;
          break;
        case RowType::kEq:
          t[static_cast<std::size_t>(next_art)] = 1.0;
          basis_[i] = next_art++;
          break;
      }
    }
  }

  /// Phase 1: drive artificial infeasibility to zero.
  LpStatus phase1() {
    if (art_begin_ == cols_) return LpStatus::kOptimal;  // no artificials
    std::vector<double> cost(static_cast<std::size_t>(cols_), 0.0);
    for (int j = art_begin_; j < cols_; ++j)
      cost[static_cast<std::size_t>(j)] = -1.0;  // maximize -(sum of artificials)
    // The phase-1 objective is bounded by construction, so the only
    // non-optimal outcome here is running out of pivots.
    if (optimize(cost, /*allow_artificial_entering=*/false) ==
        PivotOutcome::kIterationLimit)
      return LpStatus::kIterationLimit;
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < tab_.size(); ++i)
      if (basis_[i] >= art_begin_) infeasibility += rhs(i);
    if (infeasibility > feas_tol()) return LpStatus::kInfeasible;
    drive_out_artificials();
    return LpStatus::kOptimal;
  }

  /// Phase 2 on a feasible basis.
  LpStatus phase2(const std::vector<double>& objective) {
    std::vector<double> cost(static_cast<std::size_t>(cols_), 0.0);
    for (std::size_t j = 0; j < objective.size(); ++j) cost[j] = objective[j];
    switch (optimize(cost, /*allow_artificial_entering=*/false)) {
      case PivotOutcome::kOptimal:
        return LpStatus::kOptimal;
      case PivotOutcome::kUnbounded:
        return LpStatus::kUnbounded;
      case PivotOutcome::kIterationLimit:
        break;
    }
    return LpStatus::kIterationLimit;
  }

  std::vector<double> solution() const {
    std::vector<double> x(static_cast<std::size_t>(n_struct_), 0.0);
    for (std::size_t i = 0; i < tab_.size(); ++i)
      if (basis_[i] >= 0 && basis_[i] < n_struct_)
        x[static_cast<std::size_t>(basis_[i])] = std::max(0.0, rhs(i));
    return x;
  }

 private:
  double rhs(std::size_t i) const { return tab_[i].back(); }
  double feas_tol() const { return eps_ * kFeasibilitySlack; }

  /// Primal simplex: Dantzig pricing with a permanent switch to Bland's
  /// rule (guaranteed termination) after a burn-in. The pivot budget is
  /// shared across calls (both phases); exhausting it is reported as a
  /// status, not a throw, so callers can fall back to another solver.
  PivotOutcome optimize(const std::vector<double>& cost,
                        bool allow_artificial_entering) {
    const int entering_limit =
        allow_artificial_entering ? cols_ : (art_begin_ == cols_ ? cols_ : art_begin_);
    long iterations = 0;
    const long bland_after = 4096;
    std::vector<double> reduced(static_cast<std::size_t>(cols_), 0.0);
    for (;;) {
      if (--budget_ < 0) return PivotOutcome::kIterationLimit;
      const bool bland = ++iterations > bland_after;

      // Reduced costs: rc_j = c_j - c_B · column_j.
      for (int j = 0; j < entering_limit; ++j)
        reduced[static_cast<std::size_t>(j)] = cost[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < tab_.size(); ++i) {
        double cb = basis_[i] >= 0 ? cost[static_cast<std::size_t>(basis_[i])] : 0.0;
        if (cb == 0.0) continue;
        const auto& row = tab_[i];
        for (int j = 0; j < entering_limit; ++j)
          reduced[static_cast<std::size_t>(j)] -= cb * row[static_cast<std::size_t>(j)];
      }

      int enter = -1;
      double best = eps_;
      for (int j = 0; j < entering_limit; ++j) {
        double rc = reduced[static_cast<std::size_t>(j)];
        if (rc > eps_) {
          if (bland) {
            enter = j;
            break;
          }
          if (rc > best) {
            best = rc;
            enter = j;
          }
        }
      }
      if (enter < 0) return PivotOutcome::kOptimal;

      // Ratio test (Bland tie-break on the leaving basis index).
      std::size_t leave = tab_.size();
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < tab_.size(); ++i) {
        double a = tab_[i][static_cast<std::size_t>(enter)];
        if (a > eps_) {
          double ratio = rhs(i) / a;
          if (ratio < best_ratio - eps_ ||
              (ratio < best_ratio + eps_ && leave < tab_.size() &&
               basis_[i] < basis_[leave])) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == tab_.size()) return PivotOutcome::kUnbounded;
      pivot(leave, enter);
    }
  }

  void pivot(std::size_t row, int col) {
    auto& pr = tab_[row];
    const double p = pr[static_cast<std::size_t>(col)];
    AMF_ASSERT(std::abs(p) > eps_ * 0.5, "pivot on ~zero element");
    for (auto& v : pr) v /= p;
    pr[static_cast<std::size_t>(col)] = 1.0;  // exact
    for (std::size_t i = 0; i < tab_.size(); ++i) {
      if (i == row) continue;
      double factor = tab_[i][static_cast<std::size_t>(col)];
      if (factor == 0.0) continue;
      auto& ri = tab_[i];
      for (std::size_t j = 0; j < ri.size(); ++j) ri[j] -= factor * pr[j];
      ri[static_cast<std::size_t>(col)] = 0.0;  // exact
    }
    basis_[row] = col;
  }

  /// After phase 1, basic artificials sit at value zero; pivot them out
  /// on any usable structural/slack column, or mark the row redundant by
  /// leaving it (all-zero rows can never pivot anything back in).
  void drive_out_artificials() {
    for (std::size_t i = 0; i < tab_.size(); ++i) {
      if (basis_[i] < art_begin_) continue;
      int col = -1;
      for (int j = 0; j < art_begin_; ++j)
        if (std::abs(tab_[i][static_cast<std::size_t>(j)]) > feas_tol()) {
          col = j;
          break;
        }
      if (col >= 0) pivot(i, col);
      // else: redundant constraint; the artificial stays basic at 0 and,
      // being excluded from entering columns, at 0 it remains. A pivot in
      // another row can only change this row via its column entries,
      // which are all ~0 for structural/slack columns.
    }
  }

  double eps_;
  long budget_ = kDefaultMaxIterations;
  std::vector<Row> rows_;
  std::vector<std::vector<double>> tab_;
  std::vector<int> basis_;
  int n_struct_ = 0;
  int art_begin_ = 0;
  int cols_ = 0;
};

}  // namespace

LpResult solve(const LinearProgram& program, double eps,
               long max_iterations) {
  AMF_REQUIRE(eps > 0.0, "eps must be positive");
  AMF_REQUIRE(max_iterations > 0, "iteration budget must be positive");
  Tableau tableau(program, eps, max_iterations);
  LpResult result;
  result.status = tableau.phase1();
  if (result.status != LpStatus::kOptimal) return result;
  std::vector<double> objective(program.objective);
  objective.resize(static_cast<std::size_t>(program.variables), 0.0);
  result.status = tableau.phase2(objective);
  if (result.status != LpStatus::kOptimal) return result;
  result.x = tableau.solution();
  result.objective = 0.0;
  for (std::size_t j = 0; j < result.x.size(); ++j)
    result.objective += objective[j] * result.x[j];
  return result;
}

bool feasible(int variables, const std::vector<Row>& rows,
              std::vector<double>* witness, double eps) {
  LinearProgram program;
  program.variables = variables;
  program.rows = rows;
  auto result = solve(program, eps);
  if (result.status != LpStatus::kOptimal) return false;
  if (witness != nullptr) *witness = std::move(result.x);
  return true;
}

}  // namespace amf::lp
