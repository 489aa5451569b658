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
#include "util/csv.hpp"
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
flow::DemandRows positive_entries(const Matrix& demands, int sites) {
  flow::DemandRows rows;
  rows.width = sites;
  for (const auto& row : demands) {
    for (std::size_t s = 0; s < row.size(); ++s)
      if (row[s] > 0.0)
        rows.entries.push_back({static_cast<int>(s), row[s]});
    rows.first.push_back(static_cast<int>(rows.entries.size()));
  }
  return rows;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A test-local dense mirror of a problem: the raw n×m matrices the dense
/// model stored, fed the same inputs and deltas as the problem under test
/// and read through the dense model's formulas (effective value = raw ·
/// γ, an entry where that is positive).
struct DenseMirror {
  bool multi = false;
  Matrix demands, workloads;  ///< raw; workloads empty without them
  std::vector<double> caps;   ///< effective
  Matrix cap_matrix, profiles;
  std::vector<double> weights;

  std::size_t n() const { return demands.size(); }
  std::size_t m() const { return caps.size(); }
  double gamma(std::size_t j) const {
    double g = multi ? 0.0 : 1.0;
    if (multi)
      for (double v : profiles[j]) g = std::max(g, v);
    return g;
  }
  double eff_demand(std::size_t j, std::size_t s) const {
    return demands[j][s] * gamma(j);
  }
  bool on_support(std::size_t j, std::size_t s) const {
    return eff_demand(j, s) > 0.0;
  }
  double eff_workload(std::size_t j, std::size_t s) const {
    return workloads.empty() ? 0.0 : workloads[j][s] * gamma(j);
  }
  Matrix effective() const {
    Matrix e(n(), std::vector<double>(m(), 0.0));
    for (std::size_t j = 0; j < n(); ++j)
      for (std::size_t s = 0; s < m(); ++s) e[j][s] = eff_demand(j, s);
    return e;
  }

  void apply(const ProblemDelta& delta) {
    const auto j = static_cast<std::size_t>(delta.job);
    const auto s = static_cast<std::size_t>(delta.site);
    switch (delta.kind) {
      case ProblemDelta::Kind::kJobArrived: {
        const bool track_work = !workloads.empty() || demands.empty();
        demands.push_back(delta.demand_row);
        if (!delta.workload_row.empty() && track_work)
          workloads.push_back(delta.workload_row);
        else if (!workloads.empty())
          workloads.emplace_back(m(), 0.0);
        weights.push_back(delta.weight);
        if (multi)
          profiles.push_back(delta.profile_row.empty()
                                 ? std::vector<double>(
                                       cap_matrix.front().size(), 1.0)
                                 : delta.profile_row);
        break;
      }
      case ProblemDelta::Kind::kJobDeparted:
        demands.erase(demands.begin() + delta.job);
        if (!workloads.empty()) workloads.erase(workloads.begin() + delta.job);
        weights.erase(weights.begin() + delta.job);
        if (multi) profiles.erase(profiles.begin() + delta.job);
        break;
      case ProblemDelta::Kind::kSiteCapacity:
        caps[s] = delta.value;
        break;
      case ProblemDelta::Kind::kCapacityVec:
        if (multi) {
          cap_matrix[s] = delta.capacity_row;
          caps[s] = *std::min_element(delta.capacity_row.begin(),
                                      delta.capacity_row.end());
        } else {
          caps[s] = delta.capacity_row.front();
        }
        break;
      case ProblemDelta::Kind::kDemandSet:
        demands[j][s] = delta.value;
        break;
      case ProblemDelta::Kind::kWorkloadSet:
        workloads[j][s] = delta.value;
        break;
      case ProblemDelta::Kind::kProfileSet:
        profiles[j] = delta.profile_row;
        break;
    }
  }

  /// This mirror with every value passed through save()'s decimal form,
  /// as a save/load round trip leaves it.
  DenseMirror rounded() const {
    auto round = [](Matrix& rows) {
      for (auto& row : rows)
        for (double& v : row) v = std::stod(util::CsvWriter::format(v));
    };
    DenseMirror r = *this;
    Matrix flat{r.caps, r.weights};
    round(r.demands);
    round(r.workloads);
    round(r.cap_matrix);
    round(r.profiles);
    round(flat);
    r.caps = flat[0];
    r.weights = flat[1];
    return r;
  }

  /// The CSV the dense model saved; a zero of either sign, and a raw
  /// demand whose effective value is zero, saves as 0.
  std::string saved() const {
    std::ostringstream out;
    auto emit = [&out](const std::vector<double>& row) {
      for (std::size_t i = 0; i < row.size(); ++i)
        out << (i ? "," : "") << util::CsvWriter::format(row[i]);
      out << '\n';
    };
    const bool work = !workloads.empty();
    out << n() << ',' << m() << ',' << (work ? 1 : 0);
    if (multi) out << ',' << cap_matrix.front().size();
    out << '\n';
    for (std::size_t j = 0; j < n(); ++j) {
      std::vector<double> row(m(), 0.0);
      for (std::size_t s = 0; s < m(); ++s)
        if (on_support(j, s)) row[s] = demands[j][s];
      emit(row);
    }
    if (multi) {
      for (const auto& row : cap_matrix) emit(row);
      for (const auto& row : profiles) emit(row);
    } else {
      emit(caps);
    }
    if (work)
      for (std::size_t j = 0; j < n(); ++j) {
        std::vector<double> row(m(), 0.0);
        for (std::size_t s = 0; s < m(); ++s)
          if (on_support(j, s)) row[s] = workloads[j][s];
        emit(row);
      }
    emit(weights);
    return out.str();
  }
};

/// Every accessor of `p` agrees with the mirror's dense formulas bit for
/// bit (zeros of either sign read +0.0), and save() writes its bytes.
void expect_mirrors(const AllocationProblem& p, const DenseMirror& d) {
  ASSERT_EQ(p.jobs(), static_cast<int>(d.n()));
  ASSERT_EQ(p.sites(), static_cast<int>(d.m()));
  EXPECT_EQ(p.multi_resource(), d.multi);
  EXPECT_EQ(p.has_workloads(), !d.workloads.empty());
  EXPECT_EQ(p.demands(), positive_entries(d.effective(), p.sites()));
  double scale = 1.0;
  for (double c : d.caps) scale = std::max(scale, c);
  for (const auto& row : d.effective())
    for (double v : row) scale = std::max(scale, v);
  EXPECT_EQ(bits(p.scale()), bits(scale));
  const double weight_total =
      std::accumulate(d.weights.begin(), d.weights.end(), 0.0);
  const auto split = p.equal_split_shares();
  for (std::size_t s = 0; s < d.m(); ++s)
    EXPECT_EQ(bits(p.capacity(static_cast<int>(s))), bits(d.caps[s]));
  for (std::size_t j = 0; j < d.n(); ++j) {
    const int jj = static_cast<int>(j);
    EXPECT_EQ(bits(p.weight(jj)), bits(d.weights[j]));
    EXPECT_EQ(bits(p.gamma(jj)), bits(d.gamma(j)));
    double solo = 0.0, share = 0.0, work = 0.0;
    for (std::size_t s = 0; s < d.m(); ++s) {
      const int ss = static_cast<int>(s);
      const bool on = d.on_support(j, s);
      EXPECT_EQ(bits(p.demand(jj, ss)), bits(on ? d.eff_demand(j, s) : 0.0))
          << "job " << j << " site " << s;
      EXPECT_EQ(bits(p.task_demand(jj, ss)), bits(on ? d.demands[j][s] : 0.0));
      EXPECT_EQ(bits(p.workload(jj, ss)),
                bits(on ? d.eff_workload(j, s) : 0.0));
      EXPECT_EQ(bits(p.task_workload(jj, ss)),
                bits(on && !d.workloads.empty() ? d.workloads[j][s] : 0.0));
      solo += std::min(d.eff_demand(j, s), d.caps[s]);
      share += std::min(d.eff_demand(j, s),
                        d.caps[s] * d.weights[j] / weight_total);
      work += d.eff_workload(j, s);
    }
    EXPECT_EQ(bits(p.solo_ceiling(jj)), bits(solo)) << "job " << j;
    EXPECT_EQ(bits(p.equal_split_share(jj)), bits(share)) << "job " << j;
    EXPECT_EQ(bits(split[j]), bits(share)) << "job " << j;
    EXPECT_EQ(bits(p.total_work(jj)), bits(work)) << "job " << j;
  }
  std::ostringstream saved;
  p.save(saved);
  EXPECT_EQ(saved.str(), d.saved());
}

/// A problem and its mirror built from the same dense input.
struct Instance {
  AllocationProblem problem;
  DenseMirror mirror;
};

Instance build(DenseMirror d) {
  Instance inst{d.multi ? AllocationProblem::multi(d.demands, d.cap_matrix,
                                                   d.profiles, d.workloads,
                                                   d.weights)
                        : AllocationProblem(d.demands, d.caps, d.workloads,
                                            d.weights),
                d};
  return inst;
}

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

/// Workloads on the positive demands of `demands` (zero or positive).
std::vector<double> draw_work(util::Rng& rng,
                              const std::vector<double>& demands) {
  std::vector<double> row(demands.size(), 0.0);
  for (std::size_t s = 0; s < row.size(); ++s)
    if (demands[s] > 0.0 && rng.bernoulli(0.7)) row[s] = rng.uniform(0.5, 30.0);
  return row;
}

std::vector<double> draw_profile(util::Rng& rng, int r) {
  std::vector<double> row(static_cast<std::size_t>(r));
  for (auto& v : row) v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.1, 3.0);
  row[static_cast<std::size_t>(rng.uniform_int(0, r - 1))] = 1.5;
  return row;
}

/// A random instance with `r` resources (0 = scalar), optionally with
/// workloads and non-unit weights.
Instance random_instance(util::Rng& rng, int r, int n, int m,
                         bool work = false) {
  DenseMirror d;
  d.multi = r > 0;
  d.demands.resize(static_cast<std::size_t>(n));
  for (auto& row : d.demands) row = draw_row(rng, m);
  if (work)
    for (const auto& row : d.demands)
      d.workloads.push_back(draw_work(rng, row));
  d.weights.assign(static_cast<std::size_t>(n), 1.0);
  if (work)
    for (auto& w : d.weights) w = rng.uniform(0.5, 2.0);
  d.caps.resize(static_cast<std::size_t>(m));
  if (!d.multi) {
    for (auto& c : d.caps) c = rng.uniform(1.0, 20.0);
    return build(std::move(d));
  }
  d.cap_matrix.assign(static_cast<std::size_t>(m),
                      std::vector<double>(static_cast<std::size_t>(r)));
  for (std::size_t s = 0; s < d.cap_matrix.size(); ++s) {
    for (auto& c : d.cap_matrix[s]) c = rng.uniform(1.0, 20.0);
    d.caps[s] = *std::min_element(d.cap_matrix[s].begin(),
                                  d.cap_matrix[s].end());
  }
  for (int j = 0; j < n; ++j) d.profiles.push_back(draw_profile(rng, r));
  return build(std::move(d));
}

AllocationProblem random_problem(util::Rng& rng, bool multi, int n, int m) {
  return random_instance(rng, multi ? 3 : 0, n, m).problem;
}

TEST(DemandIndex, EveryConstructorBuildsIt) {
  util::Rng rng(11);
  for (int r : {0, 3}) {
    SCOPED_TRACE(r > 0 ? "multi-resource" : "scalar");
    const auto [p, d] = random_instance(rng, r, 9, 5);
    expect_mirrors(p, d);
    auto subset = [&d](const std::vector<std::size_t>& rows) {
      DenseMirror s = d;
      s.demands.clear();
      s.weights.clear();
      s.profiles.clear();
      for (std::size_t j : rows) {
        s.demands.push_back(d.demands[j]);
        s.weights.push_back(d.weights[j]);
        if (d.multi) s.profiles.push_back(d.profiles[j]);
      }
      return s;
    };
    expect_mirrors(p.subset({8, 0, 4}), subset({8, 0, 4}));
    expect_mirrors(p.subset({}), subset({}));
    const auto lie = draw_row(rng, 5);
    DenseMirror lied = d;
    lied.demands[3] = lie;
    expect_mirrors(p.with_reported_demands(3, lie), lied);
    std::stringstream ss;
    p.save(ss);
    expect_mirrors(AllocationProblem::load(ss), d.rounded());
  }
  DenseMirror empty;
  empty.caps = {4.0};
  expect_mirrors(AllocationProblem(Matrix{}, {4.0}), empty);
  DenseMirror basic;
  basic.demands = {{10, 0}, {10, 10}, {0, 10}};
  basic.workloads = {{5, 0}, {3, 3}, {0, 8}};
  basic.caps = {10, 10};
  basic.weights = {1, 1, 1};
  expect_mirrors(make_basic(), basic);
  // A tiny raw demand whose effective value underflows to zero has no
  // entry: the index mirrors the effective matrix.
  const auto tiny = AllocationProblem::multi(
      {{1e-300, 2.0}}, {{5.0, 5.0}, {5.0, 5.0}}, {{1e-30, 1e-30}});
  EXPECT_EQ(tiny.demand(0, 0), 0.0);
  EXPECT_EQ(tiny.demands(),
            positive_entries({{1e-300 * 1e-30, 2.0 * 1e-30}}, 2));
  EXPECT_EQ(tiny.demands().entries.size(), 1u);
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
      DenseMirror mirror;
      mirror.demands = d;
      mirror.caps = {1.0, 1.0, 1.0};
      mirror.weights = {1.0, 1.0};
      expect_mirrors(p, mirror);
      EXPECT_EQ(p.demands().entries.size(), v > 0.0 ? 5u : 2u);
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
  // Scalar, R = 3 without workloads and R = 2 with workloads and weights:
  // every delta kind, checked after each step against the dense mirror.
  struct Shape {
    int r;
    bool work;
  };
  for (const Shape shape : {Shape{0, false}, Shape{0, true}, Shape{3, false},
                            Shape{2, true}}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE("R " + std::to_string(shape.r) + " work " +
                   std::to_string(shape.work) + " seed " +
                   std::to_string(seed));
      util::Rng rng(900 + seed);
      const int m = 6;
      auto [p, mirror] = random_instance(rng, shape.r, 7, m, shape.work);
      ASSERT_NO_FATAL_FAILURE(expect_mirrors(p, mirror));
      for (int step = 0; step < 120; ++step) {
        const int n = p.jobs();
        const double u = rng.uniform();
        ProblemDelta delta;
        if (n == 0 || u < 0.2) {
          auto row = draw_row(rng, m);
          auto work = shape.work ? draw_work(rng, row) : std::vector<double>{};
          delta = ProblemDelta::job_arrived(
              std::move(row), std::move(work), rng.uniform(0.5, 2.0), {},
              shape.r > 0 && rng.bernoulli(0.5) ? draw_profile(rng, shape.r)
                                                : std::vector<double>{});
        } else if (u < 0.4) {
          // First, middle and last rows in turn, besides random ones.
          const int pick[] = {0, n / 2, n - 1,
                              static_cast<int>(rng.uniform_int(0, n - 1))};
          delta = ProblemDelta::job_departed(pick[step % 4]);
        } else if (u < 0.65) {
          // Values move between zero and positive in both directions; a
          // demand with work on it is not zeroed.
          const int j = static_cast<int>(rng.uniform_int(0, n - 1));
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          const double now = p.task_demand(j, s);
          double value =
              now > 0.0 ? (rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.5, 9.0))
                        : draw_demand(rng);
          if (p.task_workload(j, s) > 0.0 && !(value > 0.0)) value = 1.0;
          delta = ProblemDelta::demand_set(j, s, value);
        } else if (u < 0.75 && p.has_workloads()) {
          // Workloads change only where the demand is positive.
          const int j = static_cast<int>(rng.uniform_int(0, n - 1));
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          const double value = p.demand(j, s) > 0.0 && rng.bernoulli(0.7)
                                   ? rng.uniform(0.5, 30.0)
                                   : 0.0;
          delta = ProblemDelta::workload_set(j, s, value);
        } else if (u < 0.85) {
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          std::vector<double> row(
              static_cast<std::size_t>(std::max(shape.r, 1)));
          for (auto& c : row) c = rng.uniform(0.0, 9.0);
          delta = shape.r > 0 ? ProblemDelta::set_capacity_vec(s, row)
                              : ProblemDelta::site_capacity(s, row.front());
        } else if (shape.r > 0) {
          const int j = static_cast<int>(rng.uniform_int(0, n - 1));
          delta = ProblemDelta::set_profile(j, draw_profile(rng, shape.r));
        } else {
          const int s = static_cast<int>(rng.uniform_int(0, m - 1));
          delta = ProblemDelta::set_capacity_vec(s, {rng.uniform(0.0, 9.0)});
        }
        if (step % 2 == 0) {
          // The copying overload leaves its source as it was.
          const flow::DemandRows before = p.demands();
          AllocationProblem next = p.apply(delta);
          EXPECT_EQ(p.demands(), before);
          p = std::move(next);
        } else {
          p = std::move(p).apply(delta);
        }
        mirror.apply(delta);
        ASSERT_NO_FATAL_FAILURE(expect_mirrors(p, mirror)) << "step " << step;
      }
    }
  }
}

TEST(DemandIndex, WorkloadDeltasLeaveItAlone) {
  AllocationProblem p = make_basic();
  const flow::DemandRows before = p.demands();
  p = std::move(p).apply(ProblemDelta::workload_set(1, 0, 7.0));
  EXPECT_EQ(p.demands(), before);
  p = std::move(p).apply(ProblemDelta::workload_set(0, 0, 0.0));
  // Clearing the workload lets the demand drop to zero: the entry goes.
  p = std::move(p).apply(ProblemDelta::demand_set(0, 0, 0.0));
  EXPECT_EQ(before.entries.size(), p.demands().entries.size() + 1);
  EXPECT_EQ(p.demands(),
            positive_entries({{0, 0}, {10, 10}, {0, 10}}, p.sites()));
  EXPECT_EQ(p.workload(1, 0), 7.0);
}

TEST(DemandIndex, SparseReadsMatchTheDenseFormulas) {
  // scale(), solo_ceiling() and the equal-split shares read the index;
  // each must equal the mirror's dense formula bit for bit.
  util::Rng rng(5);
  for (int r : {0, 3}) {
    const auto [p, mirror] = random_instance(rng, r, 40, 9, true);
    expect_mirrors(p, mirror);
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
