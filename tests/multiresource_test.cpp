// Tests for the multi-resource extension: multi() instance validation,
// the classic single-site DRF example (exact values), per-site DRF
// structure, Aggregate DRF correctness against the LP-based definitional
// oracle, the multi-site balance advantage of ADRF over per-site DRF —
// the multi-resource analogue of AMF vs PSMF — and, at R = 1, agreement
// between ADRF, the flow allocator and the LP reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "core/amf.hpp"
#include "oracle/oracle.hpp"
#include "multiresource/drf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace amf::multiresource {
namespace {

using core::AllocationProblem;
using core::Matrix;

/// The bounded-tasks Leontief instance in DRF terms: per-site task caps,
/// per-task profiles, per-site capacity rows.
AllocationProblem instance(Matrix task_caps, Matrix profiles,
                           Matrix capacities) {
  return AllocationProblem::multi(std::move(task_caps), std::move(capacities),
                                  std::move(profiles));
}

TEST(MultiResourceProblem, Validation) {
  // Ragged capacities.
  EXPECT_THROW(instance({{1}}, {{1, 1}}, {{9, 18}, {9}}),
               util::ContractError);
  // Job consuming nothing.
  EXPECT_THROW(instance({{1}}, {{0, 0}}, {{9, 18}}),
               util::ContractError);
  // Negative cap.
  EXPECT_THROW(instance({{-1}}, {{1, 0}}, {{9, 18}}),
               util::ContractError);
  // Ragged task caps and profiles are rejected too, not silently
  // truncated to row 0's width.
  EXPECT_THROW(instance({{1, 1}, {1}}, {{1, 1}, {1, 1}}, {{9, 18}, {9, 18}}),
               util::ContractError);
  EXPECT_THROW(instance({{1}, {1}}, {{1, 1}, {1}}, {{9, 18}}),
               util::ContractError);
  // Non-finite entries.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(instance({{1}}, {{1, inf}}, {{9, 18}}),
               util::ContractError);
  EXPECT_THROW(instance({{1}}, {{1, 1}}, {{9, inf}}),
               util::ContractError);
  // Finite inputs whose lifted (effective) demand overflows.
  EXPECT_THROW(instance({{1e300}}, {{1e10, 1}}, {{9, 18}}),
               util::ContractError);

  // Preconditions of the DRF entry points rather than of the instance:
  // a demanded resource with a zero pool (the flow lift serves it, all
  // zeros) ...
  const auto zero_pool = instance({{1}}, {{1, 1}}, {{9, 0}});
  EXPECT_THROW(PerSiteDrfAllocator().allocate(zero_pool), util::ContractError);
  EXPECT_THROW(AggregateDrfAllocator().allocate(zero_pool),
               util::ContractError);
  EXPECT_THROW(is_aggregate_drf_fair(zero_pool, {0.0}), util::ContractError);
  // ... weights: DRF is unweighted ...
  const auto weighted =
      AllocationProblem::multi({{1}}, {{9, 18}}, {{1, 1}}, {}, {2.0});
  EXPECT_THROW(PerSiteDrfAllocator().allocate(weighted), util::ContractError);
  EXPECT_THROW(AggregateDrfAllocator().allocate(weighted),
               util::ContractError);
  EXPECT_THROW(is_aggregate_drf_fair(weighted, {0.0}), util::ContractError);
  // ... and a vector instance: a scalar one has no resource rows.
  const AllocationProblem scalar({{1}}, {9});
  EXPECT_THROW(PerSiteDrfAllocator().allocate(scalar), util::ContractError);
  EXPECT_THROW(AggregateDrfAllocator().allocate(scalar), util::ContractError);
  EXPECT_THROW(is_aggregate_drf_fair(scalar, {0.0}), util::ContractError);
}

// The rejection message names the offending row, so callers assembling
// instances from external data can point at their input line.
TEST(MultiResourceProblem, ValidationMessagesAreRowIndexed) {
  auto message_of = [](auto&& build) -> std::string {
    try {
      build();
    } catch (const util::ContractError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of([] {
              instance({{1}}, {{1, 1}}, {{9, 18}, {9}});
            }).find("ragged capacity matrix"),
            std::string::npos);
  EXPECT_NE(message_of([] {
              instance({{1}}, {{1, 1}}, {{9, 18}, {9}});
            }).find("(row 1)"),
            std::string::npos);
  EXPECT_NE(message_of([] {
              instance({{1, 1}, {1}}, {{1, 1}, {1, 1}}, {{9, 18}, {9, 18}});
            }).find("ragged demand matrix"),
            std::string::npos);
  EXPECT_NE(message_of([] {
              instance({{1}, {1}}, {{1, 1}, {1}}, {{9, 18}});
            }).find("ragged profile matrix"),
            std::string::npos);
  const std::string all_zero = message_of([] {
    instance({{1}, {1}}, {{1, 1}, {0, 0}}, {{9, 18}});
  });
  EXPECT_NE(all_zero.find("all-zero profile"), std::string::npos);
  EXPECT_NE(all_zero.find("(row 1)"), std::string::npos);
  const std::string overflow = message_of([] {
    instance({{1}, {1e300}}, {{1, 1}, {1e10, 1}}, {{9, 18}});
  });
  EXPECT_NE(overflow.find("must be finite"), std::string::npos);
  EXPECT_NE(overflow.find("(row 1)"), std::string::npos);
}

TEST(MultiResourceProblem, DominantShares) {
  // 9 CPU + 18 GB; job 0 <1 CPU, 4 GB>, job 1 <3 CPU, 1 GB>.
  auto p = instance({{100}, {100}}, {{1, 4}, {3, 1}}, {{9, 18}});
  EXPECT_EQ(dominant_resource(p, 0), 1);  // memory: 4/18 > 1/9
  EXPECT_EQ(dominant_resource(p, 1), 0);  // CPU: 3/9 > 1/18
  EXPECT_NEAR(dominant_share_per_task(p, 0), 4.0 / 18.0, 1e-12);
  EXPECT_NEAR(dominant_share_per_task(p, 1), 3.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(total_capacity(p, 0), 9.0);
  EXPECT_DOUBLE_EQ(total_capacity(p, 1), 18.0);
}

TEST(PerSiteDrf, ClassicDrfPaperExample) {
  // The canonical DRF example (Ghodsi et al.): 9 CPU, 18 GB; user A runs
  // <1 CPU, 4 GB> tasks, user B <3 CPU, 1 GB>. DRF gives A three tasks
  // and B two: dominant shares 12/18 = 6/9 = 2/3 each.
  auto p = instance({{100}, {100}}, {{1, 4}, {3, 1}}, {{9, 18}});
  PerSiteDrfAllocator drf;
  auto x = drf.allocate(p);
  EXPECT_NEAR(x[0][0], 3.0, 1e-6);
  EXPECT_NEAR(x[1][0], 2.0, 1e-6);
  auto shares = dominant_shares(p, x);
  EXPECT_NEAR(shares[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(shares[1], 2.0 / 3.0, 1e-6);
}

TEST(PerSiteDrf, TaskCapFreezesEarly) {
  // Job 0 capped at 1 task; job 1 absorbs the leftover.
  auto p = instance({{1}, {100}}, {{1, 1}, {1, 1}}, {{10, 10}});
  PerSiteDrfAllocator drf;
  auto x = drf.allocate(p);
  EXPECT_NEAR(x[0][0], 1.0, 1e-6);
  EXPECT_NEAR(x[1][0], 9.0, 1e-6);
}

TEST(PerSiteDrf, ContinuesAfterOneResourceSaturates) {
  // Job 0 uses only CPU, job 1 only memory: both should saturate their
  // own resource regardless of the other (lex max-min, not single-level).
  auto p = instance({{100}, {100}}, {{1, 0}, {0, 1}}, {{10, 20}});
  PerSiteDrfAllocator drf;
  auto x = drf.allocate(p);
  EXPECT_NEAR(x[0][0], 10.0, 1e-5);
  EXPECT_NEAR(x[1][0], 20.0, 1e-5);
}

TEST(PerSiteDrf, FeasibleOnRandomInstances) {
  util::Rng rng(11);
  PerSiteDrfAllocator drf;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_index(5));
    const int m = 1 + static_cast<int>(rng.uniform_index(3));
    const int rc = 2 + static_cast<int>(rng.uniform_index(2));
    Matrix caps(static_cast<std::size_t>(n),
                    std::vector<double>(static_cast<std::size_t>(m), 0.0));
    std::vector<std::vector<double>> profiles(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(rc), 0.0));
    std::vector<std::vector<double>> capacity(
        static_cast<std::size_t>(m),
        std::vector<double>(static_cast<std::size_t>(rc), 0.0));
    for (auto& site : capacity)
      for (auto& c : site) c = rng.uniform(5.0, 20.0);
    for (auto& row : caps)
      for (auto& c : row) c = rng.bernoulli(0.7) ? rng.uniform(0.0, 15.0) : 0.0;
    for (auto& prof : profiles) {
      for (auto& v : prof) v = rng.bernoulli(0.7) ? rng.uniform(0.1, 3.0) : 0.0;
      if (std::none_of(prof.begin(), prof.end(),
                       [](double v) { return v > 0.0; }))
        prof[0] = 1.0;
    }
    auto p = instance(caps, profiles, capacity);
    auto x = drf.allocate(p);
    EXPECT_TRUE(feasible(p, x)) << "trial " << trial;
  }
}

TEST(AggregateDrf, SingleSiteMatchesClassicDrf) {
  auto p = instance({{100}, {100}}, {{1, 4}, {3, 1}}, {{9, 18}});
  AggregateDrfAllocator adrf;
  auto x = adrf.allocate(p);
  auto shares = dominant_shares(p, x);
  EXPECT_NEAR(shares[0], 2.0 / 3.0, 1e-4);
  EXPECT_NEAR(shares[1], 2.0 / 3.0, 1e-4);
  EXPECT_TRUE(is_aggregate_drf_fair(p, shares));
}

TEST(AggregateDrf, BalancesAcrossSitesWhatPerSiteCannot) {
  // Two sites; jobs 0 and 1 captive on the hot site 0, job 2 can run on
  // either. Per-site DRF lets job 2 double-dip; ADRF routes job 2 to
  // site 1 so the captive jobs split site 0 evenly.
  auto p = instance(
      {{10, 0}, {10, 0}, {10, 10}},
      {{1, 1}, {1, 1}, {1, 1}},
      {{10, 10}, {10, 10}});
  AggregateDrfAllocator adrf;
  auto x = adrf.allocate(p);
  auto shares = dominant_shares(p, x);
  // Total pool per resource = 20 per-task dominant share = 1/20. Captives
  // reach 5 tasks = 0.25; job 2 gets site 1 (10 tasks = 0.5).
  EXPECT_NEAR(shares[0], 0.25, 1e-3);
  EXPECT_NEAR(shares[1], 0.25, 1e-3);
  EXPECT_NEAR(shares[2], 0.5, 1e-3);
  EXPECT_TRUE(is_aggregate_drf_fair(p, shares));

  PerSiteDrfAllocator persite;
  auto base_shares = dominant_shares(p, persite.allocate(p));
  // Per-site DRF splits site 0 three ways: captives stuck at ~1/6 of the
  // global pool while job 2 collects from both sites.
  EXPECT_LT(base_shares[0], 0.20);
  EXPECT_GT(base_shares[2], shares[2] - 1e-6);
  EXPECT_GT(util::jain_index(shares), util::jain_index(base_shares));
}

TEST(AggregateDrf, HeterogeneousProfilesAcrossSites) {
  // CPU-heavy and memory-heavy jobs sharing two sites: ADRF must remain
  // feasible and pass the definitional oracle.
  auto p = instance(
      {{20, 20}, {20, 20}, {0, 20}},
      {{2, 1}, {1, 3}, {1, 1}},
      {{12, 15}, {18, 24}});
  AggregateDrfAllocator adrf;
  auto x = adrf.allocate(p);
  EXPECT_TRUE(feasible(p, x));
  auto shares = dominant_shares(p, x);
  EXPECT_TRUE(is_aggregate_drf_fair(p, shares));
}

TEST(AggregateDrf, OracleRejectsUnfairVectors) {
  auto p = instance(
      {{10, 0}, {10, 0}, {10, 10}},
      {{1, 1}, {1, 1}, {1, 1}},
      {{10, 10}, {10, 10}});
  // Starving job 0 while job 1 holds more is feasible but unfair.
  EXPECT_FALSE(is_aggregate_drf_fair(p, {0.1, 0.4, 0.5}));
  // Wasting capacity is not fair either (Pareto-dominated).
  EXPECT_FALSE(is_aggregate_drf_fair(p, {0.1, 0.1, 0.1}));
  // Infeasible vectors rejected.
  EXPECT_FALSE(is_aggregate_drf_fair(p, {0.6, 0.6, 0.6}));
}

class AdrfRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AdrfRandomTest, FairFeasibleAndDominatesPerSite) {
  util::Rng rng(static_cast<std::uint64_t>(3100 + GetParam()));
  const int n = 3 + static_cast<int>(rng.uniform_index(3));
  const int m = 2 + static_cast<int>(rng.uniform_index(2));
  const int rc = 2;
  Matrix caps(static_cast<std::size_t>(n),
                  std::vector<double>(static_cast<std::size_t>(m), 0.0));
  std::vector<std::vector<double>> profiles(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(rc), 0.0));
  std::vector<std::vector<double>> capacity(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(rc), 0.0));
  for (auto& site : capacity)
    for (auto& c : site) c = rng.uniform(8.0, 20.0);
  for (int j = 0; j < n; ++j) {
    // Every job present on at least one site.
    int home = static_cast<int>(rng.uniform_index(m));
    for (int s = 0; s < m; ++s)
      if (s == home || rng.bernoulli(0.4))
        caps[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            rng.uniform(2.0, 25.0);
    profiles[static_cast<std::size_t>(j)] = {rng.uniform(0.2, 2.0),
                                             rng.uniform(0.2, 2.0)};
  }
  auto p = instance(caps, profiles, capacity);

  AggregateDrfAllocator adrf;
  auto x = adrf.allocate(p);
  EXPECT_TRUE(feasible(p, x)) << "seed " << GetParam();
  auto shares = dominant_shares(p, x);
  EXPECT_TRUE(is_aggregate_drf_fair(p, shares)) << "seed " << GetParam();

  // Lexicographic dominance over the per-site baseline's share vector.
  PerSiteDrfAllocator persite;
  auto base = dominant_shares(p, persite.allocate(p));
  auto sorted_adrf = shares, sorted_base = base;
  std::sort(sorted_adrf.begin(), sorted_adrf.end());
  std::sort(sorted_base.begin(), sorted_base.end());
  bool geq = true;
  for (std::size_t i = 0; i < sorted_adrf.size(); ++i) {
    if (sorted_adrf[i] > sorted_base[i] + 1e-6) break;
    if (sorted_adrf[i] < sorted_base[i] - 1e-6) {
      geq = false;
      break;
    }
  }
  EXPECT_TRUE(geq) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdrfRandomTest, ::testing::Range(0, 20));

TEST(AggregateDrf, EmptyProblem) {
  AggregateDrfAllocator adrf;
  auto p = instance(Matrix{}, {}, {{10.0}});
  auto x = adrf.allocate(p);
  EXPECT_TRUE(x.empty());
}

TEST(AggregateDrf, JobWithNoSitesGetsNothing) {
  auto p = instance({{0}, {5}}, {{1}, {1}}, {{10}});
  AggregateDrfAllocator adrf;
  auto x = adrf.allocate(p);
  EXPECT_DOUBLE_EQ(x[0][0], 0.0);
  EXPECT_NEAR(x[1][0], 5.0, 1e-5);
}

// At R = 1 with unit profiles and unit weights the flow lift is exact: a
// job's task total is its aggregate, and its dominant share is that
// total over the pool. The flow allocator on the lift, the LP reference
// and ADRF run on one instance object and must agree.
class MultiResAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiResAgreementTest, AmfLpAndAdrfAgreeAtR1) {
  util::Rng rng(static_cast<std::uint64_t>(5200 + GetParam()));
  const int n = 3 + static_cast<int>(rng.uniform_index(5));
  const int m = 2 + static_cast<int>(rng.uniform_index(3));
  Matrix demands(static_cast<std::size_t>(n),
                 std::vector<double>(static_cast<std::size_t>(m), 0.0));
  Matrix capacities(static_cast<std::size_t>(m));
  for (auto& site : capacities) site = {rng.uniform(5.0, 20.0)};
  for (auto& row : demands) {
    const auto home = rng.uniform_index(static_cast<std::size_t>(m));
    for (std::size_t s = 0; s < row.size(); ++s)
      if (s == home || rng.bernoulli(0.5)) row[s] = rng.uniform(1.0, 15.0);
  }
  const auto p = AllocationProblem::multi(demands, capacities, {});
  const double tol = 1e-4 * p.scale();

  const auto amf = core::AmfAllocator().allocate(p);
  const auto lp = oracle::lp_max_min_aggregates(p);
  const auto shares = dominant_shares(p, AggregateDrfAllocator().allocate(p));
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    EXPECT_NEAR(amf.aggregate(j), lp[ju], tol)
        << "seed " << GetParam() << " job " << j;
    EXPECT_NEAR(amf.aggregate(j), shares[ju] * total_capacity(p, 0), tol)
        << "seed " << GetParam() << " job " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiResAgreementTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace amf::multiresource
