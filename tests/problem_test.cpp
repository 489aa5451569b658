// Tests for the problem model and the Allocation value type: validation,
// derived quantities (solo ceilings, equal-split shares), misreport
// copies, subsetting, CSV round-trips, allocation feasibility checks,
// and the sparse demand index every network build reads (DemandIndex).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace amf::core {
namespace {

AllocationProblem make_basic() {
  Matrix d{{10, 0}, {10, 10}, {0, 10}};
  Matrix w{{5, 0}, {3, 3}, {0, 8}};
  return AllocationProblem(d, {10, 10}, w);
}

TEST(Problem, BasicAccessors) {
  auto p = make_basic();
  EXPECT_EQ(p.jobs(), 3);
  EXPECT_EQ(p.sites(), 2);
  EXPECT_DOUBLE_EQ(p.demand(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(p.workload(2, 1), 8.0);
  EXPECT_DOUBLE_EQ(p.capacity(0), 10.0);
  EXPECT_DOUBLE_EQ(p.weight(0), 1.0);
  EXPECT_TRUE(p.has_workloads());
}

TEST(Problem, DerivedQuantities) {
  auto p = make_basic();
  EXPECT_DOUBLE_EQ(p.solo_ceiling(0), 10.0);
  EXPECT_DOUBLE_EQ(p.solo_ceiling(1), 20.0);
  EXPECT_DOUBLE_EQ(p.total_work(1), 6.0);
  EXPECT_DOUBLE_EQ(p.total_capacity(), 20.0);
  EXPECT_DOUBLE_EQ(p.scale(), 10.0);
}

TEST(Problem, EqualSplitShare) {
  auto p = make_basic();
  // Three unit-weight jobs: each entitled to C/3 per demanded site.
  EXPECT_NEAR(p.equal_split_share(0), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(p.equal_split_share(1), 20.0 / 3.0, 1e-12);
}

TEST(Problem, EqualSplitShareRespectsDemandCaps) {
  Matrix d{{1, 0}, {10, 10}};
  AllocationProblem p(d, {10, 10});
  // Job 0's demand (1) is below its 5-unit entitlement at site 0.
  EXPECT_NEAR(p.equal_split_share(0), 1.0, 1e-12);
}

TEST(Problem, WeightedEqualSplitShare) {
  Matrix d{{10}, {10}};
  AllocationProblem p(d, {12}, {}, {2.0, 1.0});
  EXPECT_NEAR(p.equal_split_share(0), 8.0, 1e-12);
  EXPECT_NEAR(p.equal_split_share(1), 4.0, 1e-12);
}

TEST(Problem, ValidationRejectsBadShapes) {
  EXPECT_THROW(AllocationProblem({{1, 2}}, {1}), util::ContractError);
  EXPECT_THROW(AllocationProblem({{1}}, {}), util::ContractError);
  EXPECT_THROW(AllocationProblem({{-1}}, {1}), util::ContractError);
  EXPECT_THROW(AllocationProblem({{1}}, {-1}), util::ContractError);
  // Workload width mismatch.
  EXPECT_THROW(AllocationProblem({{1}}, {1}, {{1, 2}}), util::ContractError);
  // Positive workload without demand.
  EXPECT_THROW(AllocationProblem({{0}}, {1}, {{1}}), util::ContractError);
  // Bad weights.
  EXPECT_THROW(AllocationProblem({{1}}, {1}, {}, {0.0}),
               util::ContractError);
  EXPECT_THROW(AllocationProblem({{1}}, {1}, {}, {1.0, 2.0}),
               util::ContractError);
}

TEST(Problem, ZeroJobsIsValid) {
  AllocationProblem p(Matrix{}, {5.0});
  EXPECT_EQ(p.jobs(), 0);
  EXPECT_EQ(p.sites(), 1);
}

TEST(Problem, WithReportedDemands) {
  auto p = make_basic();
  auto lied = p.with_reported_demands(0, {3.0, 7.0});
  EXPECT_DOUBLE_EQ(lied.demand(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(lied.demand(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(lied.demand(1, 0), 10.0);  // others untouched
  EXPECT_FALSE(lied.has_workloads());         // probe copies drop workloads
  // Original untouched.
  EXPECT_DOUBLE_EQ(p.demand(0, 1), 0.0);
}

TEST(Problem, Subset) {
  auto p = make_basic();
  auto sub = p.subset({2, 0});
  EXPECT_EQ(sub.jobs(), 2);
  EXPECT_DOUBLE_EQ(sub.demand(0, 1), 10.0);  // old job 2
  EXPECT_DOUBLE_EQ(sub.demand(1, 0), 10.0);  // old job 0
  EXPECT_DOUBLE_EQ(sub.total_work(0), 8.0);
}

TEST(Problem, CsvRoundTrip) {
  auto p = make_basic();
  std::stringstream ss;
  p.save(ss);
  auto q = AllocationProblem::load(ss);
  EXPECT_EQ(q.jobs(), p.jobs());
  EXPECT_EQ(q.sites(), p.sites());
  for (int j = 0; j < p.jobs(); ++j)
    for (int s = 0; s < p.sites(); ++s) {
      EXPECT_DOUBLE_EQ(q.demand(j, s), p.demand(j, s));
      EXPECT_DOUBLE_EQ(q.workload(j, s), p.workload(j, s));
    }
  EXPECT_DOUBLE_EQ(q.capacity(1), 10.0);
}

TEST(Problem, CsvRoundTripWithoutWorkloads) {
  AllocationProblem p({{1.5, 0.25}}, {3.0, 4.0}, {}, {2.0});
  std::stringstream ss;
  p.save(ss);
  auto q = AllocationProblem::load(ss);
  EXPECT_FALSE(q.has_workloads());
  EXPECT_DOUBLE_EQ(q.demand(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(q.weight(0), 2.0);
}

TEST(Allocation, AggregatesAndUsage) {
  Allocation a(Matrix{{1, 2}, {3, 4}}, "test");
  EXPECT_EQ(a.jobs(), 2);
  EXPECT_EQ(a.sites(), 2);
  EXPECT_DOUBLE_EQ(a.aggregate(0), 3.0);
  EXPECT_DOUBLE_EQ(a.aggregate(1), 7.0);
  EXPECT_DOUBLE_EQ(a.site_usage(0), 4.0);
  EXPECT_DOUBLE_EQ(a.site_usage(1), 6.0);
  EXPECT_EQ(a.policy(), "test");
}

TEST(Allocation, FeasibilityCheck) {
  auto p = make_basic();
  Allocation good(Matrix{{5, 0}, {5, 5}, {0, 5}});
  EXPECT_TRUE(good.feasible_for(p));
  // Exceeds job 0's zero demand at site 1.
  Allocation bad_demand(Matrix{{5, 1}, {0, 0}, {0, 0}});
  EXPECT_FALSE(bad_demand.feasible_for(p));
  // Exceeds site 0's capacity.
  Allocation bad_cap(Matrix{{6, 0}, {6, 0}, {0, 0}});
  EXPECT_FALSE(bad_cap.feasible_for(p));
  // Negative share.
  Allocation neg(Matrix{{-1, 0}, {0, 0}, {0, 0}});
  EXPECT_FALSE(neg.feasible_for(p));
  // Shape mismatch.
  Allocation wrong(Matrix{{1, 1}});
  EXPECT_FALSE(wrong.feasible_for(p));
}

TEST(Allocation, NormalizedAggregates) {
  Matrix d{{10}, {10}};
  AllocationProblem p(d, {10}, {}, {2.0, 1.0});
  Allocation a(Matrix{{6}, {3}});
  auto norm = a.normalized_aggregates(p);
  EXPECT_DOUBLE_EQ(norm[0], 3.0);
  EXPECT_DOUBLE_EQ(norm[1], 3.0);
}

TEST(Allocation, Utilization) {
  auto p = make_basic();
  Allocation a(Matrix{{5, 0}, {5, 5}, {0, 5}});
  EXPECT_DOUBLE_EQ(a.utilization(p), 1.0);
  Allocation half(Matrix{{5, 0}, {5, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(half.utilization(p), 0.5);
}

TEST(Allocation, RejectsRaggedMatrix) {
  EXPECT_THROW(Allocation(Matrix{{1, 2}, {3}}), util::ContractError);
}


TEST(Problem, LoadRejectsTruncatedFile) {
  std::stringstream ss("2,2,0\n1,2\n");  // missing rows
  EXPECT_THROW(AllocationProblem::load(ss), util::ContractError);
}

TEST(Problem, LoadRejectsRaggedRow) {
  std::stringstream ss("1,2,0\n1\n3,4\n1\n");  // demand row too short
  EXPECT_THROW(AllocationProblem::load(ss), util::ContractError);
}

TEST(Problem, LoadRejectsNegativeValues) {
  std::stringstream ss("1,1,0\n-3\n5\n1\n");
  EXPECT_THROW(AllocationProblem::load(ss), util::ContractError);
}

// --- the sparse demand index ----------------------------------------------

/// The positive entries of `demands`, built entry by entry here (not by
/// the library's own helpers) as the reference the index must equal.
flow::DemandRows positive_entries(const Matrix& demands) {
  flow::DemandRows rows;
  for (const auto& row : demands) {
    for (std::size_t s = 0; s < row.size(); ++s)
      if (row[s] > 0.0)
        rows.entries.push_back({static_cast<int>(s), row[s]});
    rows.first.push_back(static_cast<int>(rows.entries.size()));
  }
  return rows;
}

void expect_index_in_step(const AllocationProblem& p) {
  ASSERT_EQ(p.demand_rows().rows(), p.jobs());
  EXPECT_EQ(p.demand_rows(), positive_entries(p.demands()));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A demand drawn so that zeros, positives and -0.0 all occur.
double draw_demand(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.45) return 0.0;
  if (u < 0.5) return -0.0;
  return rng.uniform(0.5, 12.0);
}

std::vector<double> draw_row(util::Rng& rng, int m) {
  std::vector<double> row(static_cast<std::size_t>(m));
  for (auto& d : row) d = draw_demand(rng);
  return row;
}

std::vector<double> draw_profile(util::Rng& rng, int r) {
  std::vector<double> row(static_cast<std::size_t>(r));
  for (auto& v : row) v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.1, 3.0);
  row[static_cast<std::size_t>(rng.uniform_int(0, r - 1))] = 1.5;
  return row;
}

AllocationProblem random_problem(util::Rng& rng, bool multi, int n, int m) {
  Matrix d(static_cast<std::size_t>(n));
  for (auto& row : d) row = draw_row(rng, m);
  if (!multi) {
    std::vector<double> caps(static_cast<std::size_t>(m));
    for (auto& c : caps) c = rng.uniform(1.0, 20.0);
    return AllocationProblem(std::move(d), std::move(caps));
  }
  const int r = 3;
  Matrix caps(static_cast<std::size_t>(m), std::vector<double>(3));
  for (auto& row : caps)
    for (auto& c : row) c = rng.uniform(1.0, 20.0);
  Matrix profiles(static_cast<std::size_t>(n));
  for (auto& row : profiles) row = draw_profile(rng, r);
  return AllocationProblem::multi(std::move(d), std::move(caps),
                                  std::move(profiles));
}

TEST(DemandIndex, EveryConstructorBuildsIt) {
  util::Rng rng(11);
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi-resource" : "scalar");
    const auto p = random_problem(rng, multi, 9, 5);
    expect_index_in_step(p);
    expect_index_in_step(p.subset({8, 0, 4}));
    expect_index_in_step(p.subset({}));
    expect_index_in_step(p.with_reported_demands(3, draw_row(rng, 5)));
    std::stringstream ss;
    p.save(ss);
    expect_index_in_step(AllocationProblem::load(ss));
  }
  expect_index_in_step(AllocationProblem(Matrix{}, {4.0}));
  expect_index_in_step(make_basic());
  // A tiny raw demand whose effective value underflows to zero has no
  // entry: the index mirrors the effective matrix.
  const auto tiny = AllocationProblem::multi(
      {{1e-300, 2.0}}, {{5.0, 5.0}, {5.0, 5.0}}, {{1e-30, 1e-30}});
  EXPECT_EQ(tiny.demand(0, 0), 0.0);
  expect_index_in_step(tiny);
  EXPECT_EQ(tiny.demand_rows().entries.size(), 1u);
}

TEST(DemandIndex, ValidationScanSortsEveryKindOfDouble) {
  // The scan classifies demands by their bits: it must accept exactly the
  // finite values >= 0 (-0.0 included) and index exactly those > 0. The
  // workload check reads the index in place of the dense demands.
  using lim = std::numeric_limits<double>;
  const double values[] = {0.0,           -0.0,           lim::denorm_min(),
                           lim::min(),    1.0,            lim::max(),
                           lim::infinity(), -lim::infinity(),
                           lim::quiet_NaN(), -lim::quiet_NaN(),
                           -lim::denorm_min(), -1.0,      -lim::max()};
  for (double v : values) {
    SCOPED_TRACE(v);
    const Matrix d{{1.0, v, 2.0}, {v, 0.0, v}};
    if (v >= 0.0 && std::isfinite(v)) {
      const AllocationProblem p(d, {1.0, 1.0, 1.0});
      expect_index_in_step(p);
      EXPECT_EQ(p.demand_rows().entries.size(), v > 0.0 ? 5u : 2u);
    } else {
      EXPECT_THROW(AllocationProblem(d, {1.0, 1.0, 1.0}), util::ContractError);
    }
    // As a workload: a valid one is accepted on a positive demand, and on
    // a zero demand only when it is zero itself.
    const bool valid = v >= 0.0 && std::isfinite(v);
    auto on_demand = [v](double demand) {
      return AllocationProblem({{demand, 1.0}}, {1.0, 1.0}, {{v, 0.0}});
    };
    if (valid)
      EXPECT_NO_THROW(on_demand(2.0));
    else
      EXPECT_THROW(on_demand(2.0), util::ContractError);
    if (v == 0.0)
      EXPECT_NO_THROW(on_demand(0.0));
    else
      EXPECT_THROW(on_demand(0.0), util::ContractError);
  }
}

TEST(DemandIndex, RandomDeltasKeepItInStep) {
  for (bool multi : {false, true}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE(std::string(multi ? "multi" : "scalar") + " seed " +
                   std::to_string(seed));
      util::Rng rng(900 + seed);
      const int m = 6;
      AllocationProblem p = random_problem(rng, multi, 7, m);
      expect_index_in_step(p);
      for (int step = 0; step < 120; ++step) {
        const int n = p.jobs();
        const double u = rng.uniform();
        ProblemDelta delta;
        if (n == 0 || u < 0.2) {
          delta = ProblemDelta::job_arrived(
              draw_row(rng, m), {}, rng.uniform(0.5, 2.0), {},
              multi && rng.bernoulli(0.5) ? draw_profile(rng, 3)
                                          : std::vector<double>{});
        } else if (u < 0.4) {
          // First, middle and last rows in turn, besides random ones.
          const int pick[] = {0, n / 2, n - 1,
                              static_cast<int>(rng.uniform_int(0, n - 1))};
          delta = ProblemDelta::job_departed(pick[step % 4]);
        } else if (u < 0.75) {
          // Values move between zero and positive in both directions.
          const int j = static_cast<int>(rng.uniform_int(0, n - 1));
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          const double now = p.task_demand(j, s);
          const double value =
              now > 0.0 ? (rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.5, 9.0))
                        : draw_demand(rng);
          delta = ProblemDelta::demand_set(j, s, value);
        } else if (u < 0.85) {
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          delta = multi ? ProblemDelta::set_capacity_vec(
                              s, {rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0),
                                  rng.uniform(0.0, 9.0)})
                        : ProblemDelta::site_capacity(s, rng.uniform(0.0, 9.0));
        } else if (multi) {
          const int j = static_cast<int>(rng.uniform_int(0, n - 1));
          delta = ProblemDelta::set_profile(j, draw_profile(rng, 3));
        } else {
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          delta = ProblemDelta::set_capacity_vec(s, {rng.uniform(0.0, 9.0)});
        }
        if (step % 2 == 0) {
          // The copying overload leaves its source as it was.
          const flow::DemandRows before = p.demand_rows();
          AllocationProblem next = p.apply(delta);
          EXPECT_EQ(p.demand_rows(), before);
          p = std::move(next);
        } else {
          p = std::move(p).apply(delta);
        }
        ASSERT_NO_FATAL_FAILURE(expect_index_in_step(p)) << "step " << step;
      }
    }
  }
}

TEST(DemandIndex, WorkloadDeltasLeaveItAlone) {
  AllocationProblem p = make_basic();
  const flow::DemandRows before = p.demand_rows();
  p = std::move(p).apply(ProblemDelta::workload_set(1, 0, 7.0));
  p = std::move(p).apply(ProblemDelta::workload_set(0, 0, 0.0));
  // Clearing the workload lets the demand drop to zero: the entry goes.
  p = std::move(p).apply(ProblemDelta::demand_set(0, 0, 0.0));
  EXPECT_EQ(before.entries.size(), p.demand_rows().entries.size() + 1);
  expect_index_in_step(p);
}

TEST(DemandIndex, SparseReadsMatchTheDenseFormulas) {
  // scale(), solo_ceiling() and the equal-split shares read the index;
  // each must equal the dense formula bit for bit.
  util::Rng rng(5);
  for (bool multi : {false, true}) {
    const auto p = random_problem(rng, multi, 40, 9);
    double scale = 1.0;
    for (double c : p.capacities()) scale = std::max(scale, c);
    for (const auto& row : p.demands())
      for (double d : row) scale = std::max(scale, d);
    EXPECT_EQ(bits(p.scale()), bits(scale));
    const double weight_total =
        std::accumulate(p.weights().begin(), p.weights().end(), 0.0);
    const auto shares = p.equal_split_shares();
    ASSERT_EQ(static_cast<int>(shares.size()), p.jobs());
    for (int j = 0; j < p.jobs(); ++j) {
      double solo = 0.0, share = 0.0;
      for (int s = 0; s < p.sites(); ++s) {
        solo += std::min(p.demand(j, s), p.capacity(s));
        share += std::min(p.demand(j, s),
                          p.capacity(s) * p.weight(j) / weight_total);
      }
      EXPECT_EQ(bits(p.solo_ceiling(j)), bits(solo)) << "job " << j;
      EXPECT_EQ(bits(p.equal_split_share(j)), bits(share)) << "job " << j;
      EXPECT_EQ(bits(shares[static_cast<std::size_t>(j)]), bits(share));
    }
  }
}

/// The feasibility check as it read before the index: a dense scan of
/// the shares against demand(), then one column sum per site.
bool dense_feasible(const Allocation& a, const AllocationProblem& p,
                    double eps) {
  if (p.jobs() != a.jobs()) return false;
  if (a.jobs() > 0 && p.sites() != a.sites()) return false;
  const double tol = eps * p.scale();
  for (int j = 0; j < a.jobs(); ++j)
    for (int s = 0; s < a.sites(); ++s) {
      if (a.share(j, s) < -tol) return false;
      if (a.share(j, s) > p.demand(j, s) + tol) return false;
    }
  for (int s = 0; s < a.sites(); ++s)
    if (a.site_usage(s) > p.capacity(s) + tol) return false;
  return true;
}

TEST(DemandIndex, FeasibleForMatchesTheDenseCheck) {
  util::Rng rng(17);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto p = random_problem(rng, trial % 3 == 0, 6, 4);
    Matrix shares(6, std::vector<double>(4, 0.0));
    for (int j = 0; j < 6; ++j)
      for (int s = 0; s < 4; ++s) {
        const double d = p.demand(j, s);
        // Mostly inside the caps; now and then a hair over a demand, off
        // a job's row, or negative.
        double a = d * rng.uniform(0.0, 0.3);
        if (rng.bernoulli(0.02)) a = d + 1e-3;
        if (rng.bernoulli(0.02)) a = -1e-3;
        shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] = a;
      }
    const Allocation a(std::move(shares));
    for (double eps : {1e-7, 0.0}) {
      const bool want = dense_feasible(a, p, eps);
      EXPECT_EQ(a.feasible_for(p, eps), want) << "trial " << trial;
      (want ? feasible : infeasible) += 1;
    }
  }
  // Both verdicts occur, so the comparison covers both.
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 50);
}

}  // namespace
}  // namespace amf::core
