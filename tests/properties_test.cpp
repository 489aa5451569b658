// Tests for the property checkers and the paper's property claims
// themselves: Pareto efficiency, envy-freeness and strategy-proofness of
// AMF (theorems in the paper, validated empirically here), the known
// sharing-incentive failure of AMF, and the checkers' behaviour on
// adversarial allocations.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/persite.hpp"
#include "core/properties.hpp"
#include "oracle/oracle.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

const AmfAllocator kAmf;
const EnhancedAmfAllocator kEamf;
const PerSiteMaxMin kPsmf;

TEST(Pareto, DetectsWaste) {
  AllocationProblem p({{10, 0}, {0, 10}}, {10, 10});
  Allocation wasteful(Matrix{{5, 0}, {0, 5}});
  EXPECT_FALSE(is_pareto_efficient(p, wasteful));
  Allocation full(Matrix{{10, 0}, {0, 10}});
  EXPECT_TRUE(is_pareto_efficient(p, full));
}

TEST(Pareto, DemandBoundedIsEfficient) {
  // All demands met: nothing can increase even with spare capacity.
  AllocationProblem p({{2, 0}, {0, 3}}, {10, 10});
  Allocation a(Matrix{{2, 0}, {0, 3}});
  EXPECT_TRUE(is_pareto_efficient(p, a));
}

TEST(Pareto, RejectsInfeasibleAggregates) {
  AllocationProblem p({{10}}, {10});
  Allocation a(Matrix{{20}});
  EXPECT_THROW(is_pareto_efficient(p, a), util::ContractError);
}

TEST(Envy, DetectsObviousEnvy) {
  // Both jobs want both sites; job 1 holds strictly more.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10});
  Allocation unfair(Matrix{{1, 1}, {9, 9}});
  EXPECT_GT(max_envy(p, unfair), 10.0);
  EXPECT_FALSE(is_envy_free(p, unfair));
}

TEST(Envy, ClipsToOwnDemands) {
  // Job 0 cannot use site 1, so job 1's big share there causes no envy.
  AllocationProblem p({{5, 0}, {5, 10}}, {10, 10});
  Allocation a(Matrix{{5, 0}, {5, 10}});
  EXPECT_LE(max_envy(p, a), 0.0);
  EXPECT_TRUE(is_envy_free(p, a));
}

TEST(Envy, WeightScalesComparison) {
  // Job 0 (weight 2) holding twice job 1's bundle is weighted-envy-free.
  AllocationProblem p({{10, 10}, {10, 10}}, {12, 12}, {}, {2.0, 1.0});
  Allocation a(Matrix{{8, 8}, {4, 4}});
  EXPECT_TRUE(is_envy_free(p, a));
}

TEST(SharingIncentive, ExactViolationMagnitude) {
  AllocationProblem p({{2, 2}, {5, 2}, {4, 1}}, {4, 6});
  auto a = kAmf.allocate(p);
  EXPECT_NEAR(max_sharing_incentive_violation(p, a), 1.0 / 3.0, 1e-6);
}

class AmfPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(AmfPropertySweep, ParetoAndEnvyFreeOnRandomInstances) {
  auto cfg = workload::property_sweep(
      static_cast<std::uint64_t>(1000 + GetParam()));
  workload::Generator gen(cfg);
  for (int i = 0; i < 4; ++i) {
    auto p = gen.generate();
    auto a = kAmf.allocate(p);
    EXPECT_TRUE(is_pareto_efficient(p, a)) << "instance " << i;
    EXPECT_TRUE(is_envy_free(p, a, 1e-5))
        << "envy " << max_envy(p, a) << " instance " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmfPropertySweep, ::testing::Range(0, 20));

class BaselinePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(BaselinePropertySweep, PsmfIsEnvyFreeToo) {
  // Per-site max-min is envy-free site by site, hence in aggregate value.
  auto cfg = workload::property_sweep(
      static_cast<std::uint64_t>(2000 + GetParam()));
  workload::Generator gen(cfg);
  auto p = gen.generate();
  auto a = kPsmf.allocate(p);
  EXPECT_TRUE(is_envy_free(p, a, 1e-5)) << "envy " << max_envy(p, a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinePropertySweep,
                         ::testing::Range(0, 20));

TEST(StrategyProof, AmfResistsRandomMisreports) {
  // The paper proves AMF strategy-proof; attack it with random misreports
  // on a handful of instances and expect no profitable deviation.
  util::Rng rng(4242);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto cfg = workload::property_sweep(3000 + seed);
    cfg.jobs = 5;
    workload::Generator gen(cfg);
    auto p = gen.generate();
    for (int j = 0; j < p.jobs(); j += 2) {
      auto result =
          oracle::probe_strategy_proofness(p, kAmf, j, 20, rng, 1e-5);
      EXPECT_EQ(result.profitable, 0)
          << "seed " << seed << " job " << j << " gain " << result.max_gain;
    }
  }
}

TEST(StrategyProof, UnderreportingNeverHelpsAmf) {
  // Deterministic check: shrinking a demand vector cannot raise the
  // job's usable allocation (monotonicity consequence of max-min).
  AllocationProblem p({{10, 0}, {10, 10}, {0, 10}}, {10, 10});
  auto truthful = kAmf.allocate(p);
  auto lied = p.with_reported_demands(1, {10.0, 0.0});
  auto manipulated = kAmf.allocate(lied);
  double usable = std::min(manipulated.share(1, 0), p.demand(1, 0)) +
                  std::min(manipulated.share(1, 1), p.demand(1, 1));
  EXPECT_LE(usable, truthful.aggregate(1) + 1e-6);
}

TEST(StrategyProof, OverreportingNeverHelpsAmf) {
  AllocationProblem p({{4, 0}, {10, 10}}, {10, 10});
  auto truthful = kAmf.allocate(p);
  // Job 0 claims demand everywhere at full capacity.
  auto lied = p.with_reported_demands(0, {10.0, 10.0});
  auto manipulated = kAmf.allocate(lied);
  double usable = std::min(manipulated.share(0, 0), p.demand(0, 0)) +
                  std::min(manipulated.share(0, 1), p.demand(0, 1));
  EXPECT_LE(usable, truthful.aggregate(0) + 1e-6);
}

TEST(StrategyProof, ProbeReportsTrialCount) {
  util::Rng rng(7);
  AllocationProblem p({{10, 0}, {0, 10}}, {10, 10});
  auto result = oracle::probe_strategy_proofness(p, kAmf, 0, 12, rng);
  EXPECT_EQ(result.trials, 12);
  EXPECT_EQ(result.profitable, 0);
}

TEST(StrategyProof, DetectsManipulableStrawmanPolicy) {
  // A deliberately gameable policy: aggregates proportional to *claimed*
  // total demand. The probe must find profitable misreports, proving the
  // harness can detect violations (guards against vacuously-passing
  // strategy-proofness tests).
  class ProportionalToClaim final : public Allocator {
   public:
    Allocation allocate(const AllocationProblem& p) const override {
      const int n = p.jobs(), m = p.sites();
      Matrix shares(static_cast<std::size_t>(n),
                    std::vector<double>(static_cast<std::size_t>(m), 0.0));
      for (int s = 0; s < m; ++s) {
        double claim_total = 0.0;
        for (int j = 0; j < n; ++j) claim_total += p.demand(j, s);
        if (claim_total <= 0.0) continue;
        for (int j = 0; j < n; ++j)
          shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
              std::min(p.demand(j, s),
                       p.capacity(s) * p.demand(j, s) / claim_total);
      }
      return Allocation(std::move(shares), name());
    }
    std::string name() const override { return "claim-proportional"; }
  };

  ProportionalToClaim strawman;
  // True demands of 8 per site: the truthful claim-proportional split gives
  // each job 5 per site, below its demand, so inflating the claim pays.
  AllocationProblem p({{8, 8}, {8, 8}}, {10, 10});
  util::Rng rng(11);
  auto result =
      oracle::probe_strategy_proofness(p, strawman, 0, 200, rng, 1e-5);
  EXPECT_GT(result.profitable, 0);
  EXPECT_GT(result.max_gain, 0.5);
}

TEST(Properties, InputValidation) {
  AllocationProblem p({{10}}, {10});
  Allocation wrong(Matrix{{1}, {1}});
  EXPECT_THROW(is_pareto_efficient(p, wrong), util::ContractError);
  EXPECT_THROW(max_envy(p, wrong), util::ContractError);
  EXPECT_THROW(max_sharing_incentive_violation(p, wrong),
               util::ContractError);
  util::Rng rng(1);
  EXPECT_THROW(oracle::probe_strategy_proofness(p, kAmf, 5, 1, rng),
               util::ContractError);
}

}  // namespace
}  // namespace amf::core
