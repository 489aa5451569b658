// Tests for the RobustAllocator graceful-degradation chain: healthy
// primaries pass straight through, failing tiers are rejected and
// recorded, infeasible output is caught by the post-hoc audit, and
// caller bugs (ContractError) are never swallowed.
#include <gtest/gtest.h>

#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/persite.hpp"
#include "core/properties.hpp"
#include "core/robust.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace amf::core {
namespace {

AllocationProblem small_problem() {
  Matrix demands{{5.0, 5.0}, {5.0, 5.0}};
  std::vector<double> capacities{10.0, 10.0};
  Matrix workloads{{10.0, 10.0}, {10.0, 10.0}};
  return AllocationProblem(std::move(demands), std::move(capacities),
                           std::move(workloads));
}

/// A primary that always reports a solver failure.
class ThrowingAllocator final : public Allocator {
 public:
  Allocation allocate(const AllocationProblem&) const override {
    throw util::InternalError("synthetic solver failure");
  }
  std::string name() const override { return "Throwing"; }
};

/// A primary that returns an allocation violating every demand cap.
class InfeasibleAllocator final : public Allocator {
 public:
  Allocation allocate(const AllocationProblem& p) const override {
    Matrix shares(static_cast<std::size_t>(p.jobs()),
                  std::vector<double>(static_cast<std::size_t>(p.sites()),
                                      1e6));
    return Allocation(std::move(shares), name());
  }
  std::string name() const override { return "Infeasible"; }
};

/// A primary that blames the caller.
class ContractThrowingAllocator final : public Allocator {
 public:
  Allocation allocate(const AllocationProblem&) const override {
    throw util::ContractError("caller handed us garbage");
  }
  std::string name() const override { return "ContractThrowing"; }
};

TEST(RobustAllocator, HealthyPrimaryServesEverything) {
  AmfAllocator amf;
  RobustAllocator robust(amf);
  auto problem = small_problem();
  for (int i = 0; i < 3; ++i) {
    auto alloc = robust.allocate(problem);
    EXPECT_TRUE(alloc.feasible_for(problem));
  }
  const auto& st = robust.fallback_stats();
  EXPECT_EQ(st.calls(), 3);
  EXPECT_EQ(st.served[0], 3);
  EXPECT_EQ(st.degraded_calls(), 0);
  EXPECT_EQ(st.last, FallbackTier::kPrimary);
}

TEST(RobustAllocator, InternalErrorFallsThroughToNextTier) {
  ThrowingAllocator broken;
  RobustAllocator robust(broken);
  auto problem = small_problem();
  auto alloc = robust.allocate(problem);
  EXPECT_TRUE(alloc.feasible_for(problem));
  const auto& st = robust.fallback_stats();
  EXPECT_EQ(st.failures[0], 1);
  // Per-site max-min rescues the event, with exactly its own shares.
  EXPECT_EQ(st.served[static_cast<std::size_t>(FallbackTier::kPerSite)], 1);
  EXPECT_EQ(st.degraded_calls(), 1);
  EXPECT_EQ(st.last, FallbackTier::kPerSite);
  EXPECT_NE(st.last_error.find("synthetic solver failure"),
            std::string::npos);
  const Allocation want = PerSiteMaxMin().allocate(problem);
  for (int j = 0; j < problem.jobs(); ++j)
    for (int s = 0; s < problem.sites(); ++s)
      EXPECT_EQ(alloc.share(j, s), want.share(j, s)) << j << "," << s;
}

TEST(RobustAllocator, InfeasibleOutputIsRejectedByTheAudit) {
  InfeasibleAllocator cheat;
  RobustAllocator robust(cheat);
  auto problem = small_problem();
  auto alloc = robust.allocate(problem);
  EXPECT_TRUE(alloc.feasible_for(problem));
  const auto& st = robust.fallback_stats();
  EXPECT_EQ(st.failures[0], 1);
  EXPECT_EQ(st.degraded_calls(), 1);
}

TEST(RobustAllocator, ContractErrorPropagates) {
  ContractThrowingAllocator picky;
  RobustAllocator robust(picky);
  auto problem = small_problem();
  EXPECT_THROW(robust.allocate(problem), util::ContractError);
}

TEST(RobustAllocator, MatchesPrimaryWhenPrimaryIsHealthy) {
  // Wrapping must not change the answer on the happy path.
  AmfAllocator amf;
  RobustAllocator robust(amf);
  auto problem = small_problem();
  auto direct = amf.allocate(problem);
  auto wrapped = robust.allocate(problem);
  ASSERT_EQ(direct.jobs(), wrapped.jobs());
  for (int j = 0; j < direct.jobs(); ++j)
    for (int s = 0; s < direct.sites(); ++s)
      EXPECT_EQ(direct.share(j, s), wrapped.share(j, s));
}

TEST(RobustAllocator, NameAndStatsReset) {
  AmfAllocator amf;
  RobustAllocator robust(amf);
  EXPECT_EQ(robust.name(), "Robust(AMF)");
  robust.allocate(small_problem());
  EXPECT_EQ(robust.fallback_stats().calls(), 1);
  robust.reset_stats();
  EXPECT_EQ(robust.fallback_stats().calls(), 0);
}

// Each wrapper counts its own events exactly, every wrapper adds to the
// process-wide registry counter, and one wrapper's reset_stats() never
// takes anything back from that global total.
TEST(RobustAllocator, TwoWrappersCountApart) {
  const obs::Counter global_served = obs::Registry::global().counter(
      "amf_core_fallback_served_primary");
  const long long before = global_served.value();
  AmfAllocator amf;
  RobustAllocator a(amf);
  RobustAllocator b(amf);
  const auto problem = small_problem();
  for (int i = 0; i < 3; ++i) a.allocate(problem);
  for (int i = 0; i < 2; ++i) b.allocate(problem);

  constexpr auto kPrimary = static_cast<std::size_t>(FallbackTier::kPrimary);
  EXPECT_EQ(a.fallback_stats().served[kPrimary], 3);
  EXPECT_EQ(a.fallback_stats().calls(), 3);
  EXPECT_EQ(b.fallback_stats().served[kPrimary], 2);
  EXPECT_EQ(b.fallback_stats().calls(), 2);
  const long long after = global_served.value();
  EXPECT_EQ(after - before, 5);

  a.reset_stats();
  EXPECT_EQ(a.fallback_stats().calls(), 0);
  EXPECT_EQ(b.fallback_stats().served[kPrimary], 2);
  EXPECT_GE(global_served.value(), after);
  a.allocate(problem);
  EXPECT_EQ(a.fallback_stats().served[kPrimary], 1);
  EXPECT_EQ(global_served.value() - before, 6);
}

TEST(RobustAllocator, PerSiteTierIsTheUnconditionalBackstop) {
  // Give the chain a problem every AMF variant can solve but verify the
  // per-site tier alone also yields a feasible answer, so the chain's
  // terminal tier can never leave an event unserved.
  PerSiteMaxMin persite;
  auto problem = small_problem();
  auto alloc = persite.allocate(problem);
  EXPECT_TRUE(alloc.feasible_for(problem));
}

// Sites (1e8, 1): one job demands 1e8 at site 0, ten jobs demand 1 at
// site 1. The equal-split floors are feasible, but the floor probe's flow
// tolerance (eps × 1e8) swallows the small jobs' floors of 1/11, so the
// E-AMF primary cannot saturate them. That is a solver failure on a
// valid instance: it raises InternalError, and the chain falls back to
// per-site max-min instead of rejecting the request. Per-site gives every
// job at least its equal split at each site, so the small jobs get 0.1
// each and the fallback keeps the sharing incentive E-AMF exists for.
TEST(RobustAllocator, EnhancedAmfFloorProbeFailureFallsBack) {
  Matrix demands(11, std::vector<double>{0.0, 1.0});
  demands[0] = {1e8, 0.0};
  const AllocationProblem p(demands, {1e8, 1.0});
  const EnhancedAmfAllocator eamf;
  EXPECT_THROW((void)eamf.allocate(p), util::InternalError);
  RobustAllocator robust(eamf);
  const Allocation a = robust.allocate(p);
  EXPECT_TRUE(a.feasible_for(p));
  const FallbackStats stats = robust.fallback_stats();
  EXPECT_EQ(stats.calls(), 1);
  EXPECT_EQ(stats.served[0], 0);
  EXPECT_EQ(stats.failures[0], 1);
  EXPECT_EQ(stats.served[static_cast<std::size_t>(FallbackTier::kPerSite)],
            1);
  EXPECT_EQ(stats.last, FallbackTier::kPerSite);
  EXPECT_LE(max_sharing_incentive_violation(p, a), 1e-12);
}

TEST(FallbackTier, NamesAreStable) {
  EXPECT_STREQ(to_string(FallbackTier::kPrimary), "primary");
  EXPECT_STREQ(to_string(FallbackTier::kPerSite), "per-site");
  EXPECT_STREQ(to_string(FallbackTier::kSalvage), "salvage");
}

}  // namespace
}  // namespace amf::core
