// Tests for src/flow: Dinic max-flow on known graphs and against a
// brute-force cut enumeration, residual reachability, feasible flow with
// lower bounds, the transportation wrapper, and the parametric
// critical-level solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <cmath>
#include <numeric>

#include "flow/lower_bounds.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "flow/parametric.hpp"
#include "flow/transport.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace amf::flow {
namespace {

TEST(FlowNetwork, SingleEdge) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 1), 5.0);
}

TEST(FlowNetwork, SeriesBottleneck) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 5.0);
  net.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 3.0);
}

TEST(FlowNetwork, ParallelPaths) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 2.0);
  net.add_edge(0, 2, 3.0);
  net.add_edge(1, 3, 2.0);
  net.add_edge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 3), 5.0);
}

TEST(FlowNetwork, ClassicTextbookGraph) {
  // CLRS-style example with a known max flow of 23.
  FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 5), 23.0);
}

TEST(FlowNetwork, RequiresAugmentingThroughBackEdge) {
  // The greedy path 0->1->2->3 must be partially undone via the residual.
  FlowNetwork net(4);
  net.add_edge(0, 1, 1);
  net.add_edge(0, 2, 1);
  net.add_edge(1, 2, 1);
  net.add_edge(1, 3, 1);
  net.add_edge(2, 3, 1);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 3), 2.0);
}

TEST(FlowNetwork, FlowConservationPerEdge) {
  FlowNetwork net(4);
  EdgeId a = net.add_edge(0, 1, 2.0);
  EdgeId b = net.add_edge(0, 2, 3.0);
  EdgeId c = net.add_edge(1, 3, 2.0);
  EdgeId d = net.add_edge(2, 3, 3.0);
  net.max_flow(0, 3);
  EXPECT_DOUBLE_EQ(net.flow(a), 2.0);
  EXPECT_DOUBLE_EQ(net.flow(b), 3.0);
  EXPECT_DOUBLE_EQ(net.flow(c), 2.0);
  EXPECT_DOUBLE_EQ(net.flow(d), 3.0);
  EXPECT_DOUBLE_EQ(net.outflow(0), 5.0);
}

TEST(FlowNetwork, ResetAndRecomputeWithNewCapacity) {
  FlowNetwork net(2);
  EdgeId e = net.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 1), 1.0);
  net.set_capacity(e, 4.0);
  net.reset_flow();
  EXPECT_DOUBLE_EQ(net.max_flow(0, 1), 4.0);
}

TEST(FlowNetwork, MinCutSeparatesSourceAndSink) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 5.0);
  net.add_edge(1, 2, 3.0);
  net.max_flow(0, 2);
  auto side = net.residual_reachable_from(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);   // the 0->1 edge has residual
  EXPECT_FALSE(side[2]);  // the bottleneck separates the sink
}

TEST(FlowNetwork, ResidualCanReachSink) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 1.0);
  net.add_edge(0, 2, 1.0);
  net.add_edge(1, 3, 2.0);
  net.add_edge(2, 3, 1.0);
  net.max_flow(0, 3);
  auto reach = net.residual_can_reach(3);
  EXPECT_TRUE(reach[1]);   // node 1's outgoing edge has slack
  EXPECT_FALSE(reach[2]);  // node 2 is fully saturated toward the sink
}

TEST(FlowNetwork, InputValidation) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1.0), util::ContractError);
  EXPECT_THROW(net.add_edge(0, 1, -1.0), util::ContractError);
  EXPECT_THROW(net.max_flow(0, 0), util::ContractError);
}

// ---------------------------------------------------------------------------
// Min-cut reads served from Dinic's terminal BFS: checked against a BFS
// written here from the edge list, over the public per-arc residuals.

struct Arc {
  NodeId from;
  NodeId to;
  EdgeId id;  // forward arc; its reverse is id ^ 1
};

std::vector<char> reference_reachable(const FlowNetwork& net,
                                      const std::vector<Arc>& arcs,
                                      NodeId from, double eps) {
  std::vector<char> seen(static_cast<std::size_t>(net.node_count()), 0);
  std::vector<NodeId> stack{from};
  seen[static_cast<std::size_t>(from)] = 1;
  auto visit = [&](NodeId u, EdgeId a) {
    if (!seen[static_cast<std::size_t>(u)] && net.residual(a) > eps) {
      seen[static_cast<std::size_t>(u)] = 1;
      stack.push_back(u);
    }
  };
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const Arc& arc : arcs) {
      if (arc.from == v) visit(arc.to, arc.id);
      if (arc.to == v) visit(arc.from, arc.id ^ 1);
    }
  }
  return seen;
}

TEST(FlowNetworkCutCache, MatchesReferenceAcrossEveryMutator) {
  constexpr NodeId kSource = 0, kSink = 1;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(500 + seed);
    FlowNetwork net(8);
    std::vector<Arc> arcs;
    auto add_arc = [&](NodeId u, NodeId v) {
      const double cap = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 10.0);
      arcs.push_back({u, v, net.add_edge(u, v, cap)});
    };
    for (int k = 0; k < 20; ++k) {
      const auto u = static_cast<NodeId>(rng.uniform_index(8));
      const auto v = static_cast<NodeId>(rng.uniform_index(8));
      if (u != v) add_arc(u, v);
    }
    add_arc(kSource, 2);
    add_arc(3, kSink);
    auto pick = [&] {
      return arcs[static_cast<std::size_t>(rng.uniform_index(arcs.size()))].id;
    };
    // The last solve's eps, plus one it never used: a query at another eps
    // must traverse, not reuse the solve's level graph.
    double solve_eps = FlowNetwork::kDefaultEps;
    const util::Deadline fired = util::Deadline::after_ms(0.0);
    for (int step = 0; step < 300; ++step) {
      const int op = static_cast<int>(rng.uniform_index(10));
      switch (op) {
        case 0:
        case 1:
          solve_eps = rng.bernoulli(0.5) ? FlowNetwork::kDefaultEps : 0.5;
          net.max_flow(kSource, kSink, solve_eps);
          break;
        case 2: {
          // A max flow cut short by the ambient deadline leaves no cut
          // behind; the next query must see the current residuals.
          util::ScopedDeadline scope(fired);
          net.max_flow(kSource, kSink, solve_eps);
          break;
        }
        case 3:
          net.add_node();
          break;
        case 4: {
          const auto n = static_cast<std::uint64_t>(net.node_count());
          const auto u = static_cast<NodeId>(rng.uniform_index(n));
          const auto v = static_cast<NodeId>(rng.uniform_index(n));
          if (u != v) add_arc(u, v);
          break;
        }
        case 5: {
          const EdgeId e = pick();
          net.set_capacity(e, rng.uniform(0.0, 10.0));
          break;
        }
        case 6: {
          const EdgeId e = pick();
          net.cancel_flow(e, std::max(0.0, net.flow(e)) * rng.uniform());
          break;
        }
        case 7: {
          const EdgeId e = pick();
          net.rebase_capacity(e, rng.uniform(0.0, 10.0));
          break;
        }
        case 8: {
          const EdgeId e = pick();
          net.set_flow(e, net.capacity(e) * rng.uniform());
          break;
        }
        default:
          net.reset_flow();
          break;
      }
      for (double eps : {solve_eps, 0.25}) {
        EXPECT_EQ(net.residual_reachable_from(kSource, eps),
                  reference_reachable(net, arcs, kSource, eps))
            << "seed " << seed << " step " << step << " op " << op
            << " eps " << eps;
      }
    }
  }
}

TEST(FlowNetworkCutCache, StoppedMaxFlowNeverServesStaleCut) {
  FlowNetwork net(3);
  std::vector<Arc> arcs;
  arcs.push_back({0, 1, net.add_edge(0, 1, 2.0)});
  arcs.push_back({1, 2, net.add_edge(1, 2, 1.0)});
  net.max_flow(0, 2);
  EXPECT_EQ(net.residual_reachable_from(0), (std::vector<char>{1, 1, 0}));
  // Headroom on the bottleneck reconnects the sink, but the stopped
  // max_flow below never runs a BFS that could observe it.
  net.rebase_capacity(arcs[1].id, 5.0);
  const util::Deadline fired = util::Deadline::after_ms(0.0);
  {
    util::ScopedDeadline scope(fired);
    EXPECT_EQ(net.max_flow(0, 2), 0.0);
  }
  EXPECT_EQ(net.residual_reachable_from(0), (std::vector<char>{1, 1, 1}));
  EXPECT_EQ(net.residual_reachable_from(0),
            reference_reachable(net, arcs, 0, FlowNetwork::kDefaultEps));
  // Completing the solve closes the cut again.
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 1.0);
  EXPECT_EQ(net.residual_reachable_from(0), (std::vector<char>{1, 0, 0}));
}

// Brute-force min-cut by enumerating all source-side subsets.
double brute_force_max_flow(int nodes,
                            const std::vector<std::array<double, 3>>& edges,
                            int s, int t) {
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << nodes); ++mask) {
    if (!(mask & (1 << s)) || (mask & (1 << t))) continue;
    double cut = 0.0;
    for (const auto& e : edges) {
      int u = static_cast<int>(e[0]), v = static_cast<int>(e[1]);
      if ((mask & (1 << u)) && !(mask & (1 << v))) cut += e[2];
    }
    best = std::min(best, cut);
  }
  return best;
}

class RandomFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowTest, MatchesBruteForceMinCut) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int nodes = 6;
  std::vector<std::array<double, 3>> edges;
  FlowNetwork net(nodes);
  for (int u = 0; u < nodes; ++u)
    for (int v = 0; v < nodes; ++v) {
      if (u == v) continue;
      if (rng.bernoulli(0.45)) {
        double cap = static_cast<double>(rng.uniform_int(0, 10));
        edges.push_back({static_cast<double>(u), static_cast<double>(v), cap});
        net.add_edge(u, v, cap);
      }
    }
  double flow = net.max_flow(0, nodes - 1);
  double cut = brute_force_max_flow(nodes, edges, 0, nodes - 1);
  EXPECT_NEAR(flow, cut, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowTest, ::testing::Range(0, 40));

TEST(LowerBounds, TrivialFeasible) {
  // One edge [1, 3] from s to t: any flow in the interval works.
  std::vector<BoundedEdge> edges{{0, 1, 1.0, 3.0}};
  auto flows = feasible_flow_with_lower_bounds(2, edges, 0, 1);
  ASSERT_TRUE(flows.has_value());
  EXPECT_GE((*flows)[0], 1.0 - 1e-9);
  EXPECT_LE((*flows)[0], 3.0 + 1e-9);
}

TEST(LowerBounds, InfeasibleWhenBoundExceedsDownstream) {
  // s -> a with lower bound 5, a -> t with capacity 3.
  std::vector<BoundedEdge> edges{{0, 1, 5.0, 10.0}, {1, 2, 0.0, 3.0}};
  EXPECT_FALSE(feasible_flow_with_lower_bounds(3, edges, 0, 2).has_value());
}

TEST(LowerBounds, RespectsAllBounds) {
  // Diamond with asymmetric lower bounds.
  std::vector<BoundedEdge> edges{
      {0, 1, 2.0, 5.0}, {0, 2, 0.0, 5.0}, {1, 3, 0.0, 5.0},
      {2, 3, 1.0, 5.0},
  };
  auto flows = feasible_flow_with_lower_bounds(4, edges, 0, 3);
  ASSERT_TRUE(flows.has_value());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_GE((*flows)[i], edges[i].lower - 1e-9) << "edge " << i;
    EXPECT_LE((*flows)[i], edges[i].upper + 1e-9) << "edge " << i;
  }
  // Conservation at the interior nodes.
  EXPECT_NEAR((*flows)[0], (*flows)[2], 1e-9);
  EXPECT_NEAR((*flows)[1], (*flows)[3], 1e-9);
}

TEST(LowerBounds, ExactEdgeValue) {
  // lower == upper pins the edge exactly.
  std::vector<BoundedEdge> edges{
      {0, 1, 4.0, 4.0}, {1, 2, 0.0, 10.0},
  };
  auto flows = feasible_flow_with_lower_bounds(3, edges, 0, 2);
  ASSERT_TRUE(flows.has_value());
  EXPECT_NEAR((*flows)[0], 4.0, 1e-9);
  EXPECT_NEAR((*flows)[1], 4.0, 1e-9);
}

TEST(LowerBounds, ValidatesInput) {
  std::vector<BoundedEdge> bad{{0, 1, 3.0, 2.0}};
  EXPECT_THROW(feasible_flow_with_lower_bounds(2, bad, 0, 1),
               util::ContractError);
}

Matrix kDemands3x2{{10, 0}, {10, 10}, {0, 10}};
std::vector<double> kCaps2{10, 10};

/// The test edge of the one-pass build: a network over the CSR of a dense
/// demand matrix (DemandRows::from_dense validates it).
TransportNetwork dense_network(const Matrix& demands,
                               const std::vector<double>& caps) {
  return TransportNetwork(
      DemandRows::from_dense(demands, static_cast<int>(caps.size())), caps);
}

/// The shares of `rows` as a dense matrix.
Matrix dense_shares(const ShareRows& rows) {
  Matrix out;
  for (int j = 0; j < rows.rows(); ++j) out.push_back(rows.dense_row(j));
  return out;
}

TEST(Transport, SaturatesFeasibleCaps) {
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  net.solve({5, 5, 5});
  EXPECT_TRUE(net.saturated());
  auto a = dense_shares(net.allocation());
  for (int j = 0; j < 3; ++j) {
    double sum = a[j][0] + a[j][1];
    EXPECT_NEAR(sum, 5.0, 1e-9) << "job " << j;
  }
}

TEST(Transport, DetectsInfeasibleCaps) {
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  net.solve({10, 10, 10});  // total 30 > capacity 20
  EXPECT_FALSE(net.saturated());
}

TEST(Transport, SoloCeiling) {
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  EXPECT_DOUBLE_EQ(net.solo_ceiling(0), 10.0);
  EXPECT_DOUBLE_EQ(net.solo_ceiling(1), 20.0);
}

TEST(Transport, JobsCanIncreaseDetection) {
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  net.solve({10, 0, 0});
  ASSERT_TRUE(net.saturated());
  auto can = net.jobs_can_increase();
  EXPECT_FALSE(can[0]);  // job 0 consumed all of site 0, its only site
  EXPECT_TRUE(can[1]);
  EXPECT_TRUE(can[2]);
}

TEST(Transport, AggregatesFeasibleHelpers) {
  const DemandRows rows = DemandRows::from_dense(kDemands3x2, 2);
  EXPECT_TRUE(allocation_for_aggregates(rows, kCaps2, {6, 7, 7}).has_value());
  EXPECT_FALSE(allocation_for_aggregates(rows, kCaps2, {11, 0, 0}));
  auto alloc = allocation_for_aggregates(rows, kCaps2, {5, 10, 5});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_NEAR(alloc->at(1, 0) + alloc->at(1, 1), 10.0, 1e-9);
}

TEST(Transport, ScaleTracksLargestValue) {
  TransportNetwork net = dense_network(Matrix{{500.0}}, {200.0});
  EXPECT_DOUBLE_EQ(net.scale(), 500.0);
}

TEST(Transport, InputValidation) {
  // Dense rows are validated where they become a CSR; the one-pass build
  // validates the capacities and the CSR itself (see
  // TransportDemandIndex.SparseBuildValidatesItsRows).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1, 2}, {1}}, 2),
               util::ContractError);  // ragged row
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1, -1}}, 2), util::ContractError);
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1, nan}}, 2),
               util::ContractError);
  EXPECT_THROW(dense_network(Matrix{{1, 1}}, {10, -1}),
               util::ContractError);  // negative site capacity
  EXPECT_THROW(dense_network(Matrix{{}}, {}), util::ContractError);
  EXPECT_THROW(dense_network(Matrix{}, {}), util::ContractError);

  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  EXPECT_THROW(net.solve({1, 1}), util::ContractError);  // 2 caps, 3 jobs
  EXPECT_THROW(net.solve({1, -1, 1}), util::ContractError);
}

long long counter(const char* name) {
  return obs::Registry::global().snapshot().counter(name);
}

void expect_same_bits(const ShareRows& got, const ShareRows& want) {
  ASSERT_EQ(got.width, want.width);
  ASSERT_EQ(got.first, want.first);
  ASSERT_EQ(got.sites, want.sites);
  for (std::size_t k = 0; k < got.values.size(); ++k)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[k]),
              std::bit_cast<std::uint64_t>(want.values[k]))
        << "entry " << k << " site " << got.sites[k];
}

TEST(Transport, RepeatedSolveIsServedFromTheHeldFlow) {
  const std::vector<double> a{10, 0, 0}, b{4, 7, 6};
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  net.solve(a);
  const double flow_b = net.solve(b);
  const long long calls = counter("amf_flow_maxflow_calls");
  const long long hits = counter("amf_flow_memo_hits");
  EXPECT_EQ(net.solve(b), flow_b);
  EXPECT_EQ(counter("amf_flow_maxflow_calls"), calls);
  EXPECT_EQ(counter("amf_flow_memo_hits"), hits + 1);

  TransportNetwork fresh = dense_network(kDemands3x2, kCaps2);
  EXPECT_EQ(fresh.solve(b), flow_b);
  expect_same_bits(net.allocation(), fresh.allocation());
  EXPECT_EQ(net.saturated(), fresh.saturated());
  EXPECT_EQ(net.jobs_can_increase(), fresh.jobs_can_increase());

  // The memo holds only the last caps and eps: anything else solves.
  const long long calls_before_miss = counter("amf_flow_maxflow_calls");
  net.solve(b, 1e-6);
  net.solve(a);
  EXPECT_EQ(counter("amf_flow_maxflow_calls"), calls_before_miss + 2);
  EXPECT_EQ(counter("amf_flow_memo_hits"), hits + 1);
}

TEST(Transport, MaxFlowCutShortByStopIsNotMemoized) {
  // Two jobs with caps (5, 5) on two sites of capacity 10: a completed
  // solve attains 10. A solve stopped before its first phase pushes
  // nothing, and the same caps solved afterwards must not return that.
  const Matrix demands{{10, 10}, {10, 10}};
  const std::vector<double> caps{5, 5};
  const util::Deadline fired = util::Deadline::after_ms(0.0);

  TransportNetwork one_shot = dense_network(demands, kCaps2);
  {
    util::ScopedDeadline scope(fired);
    EXPECT_EQ(one_shot.solve(caps), 0.0);
  }
  EXPECT_EQ(one_shot.solve(caps), 10.0);
  EXPECT_TRUE(one_shot.saturated());

  TransportNetwork grown(kCaps2);
  grown.add_job({0, 1}, {10, 10});
  grown.add_job({0, 1}, {10, 10});
  grown.set_active({0, 1});
  {
    util::ScopedDeadline scope(fired);
    EXPECT_EQ(grown.solve(caps), 0.0);
  }
  EXPECT_EQ(grown.solve(caps), 10.0);
  EXPECT_TRUE(grown.saturated());

  // The warm probe path: a probe stopped on top of a held flow keeps that
  // flow, and the next probe at the same caps must augment it.
  EXPECT_EQ(grown.solve({1, 1}), 2.0);
  {
    util::ScopedDeadline scope(fired);
    EXPECT_EQ(grown.probe(caps), 2.0);
  }
  EXPECT_EQ(grown.probe(caps), 10.0);
  EXPECT_TRUE(grown.saturated());
}

/// Every read of `got` and `want` agrees bit for bit at the given caps:
/// first the flow-state invariant reads after a probe, then every read
/// after a solve.
void expect_same_network(TransportNetwork& got, TransportNetwork& want,
                         const std::vector<double>& caps) {
  ASSERT_EQ(got.jobs(), want.jobs());
  ASSERT_EQ(got.sites(), want.sites());
  EXPECT_EQ(got.scale(), want.scale());
  got.probe(caps);
  want.probe(caps);
  EXPECT_EQ(got.saturated(), want.saturated());
  EXPECT_EQ(got.jobs_can_increase(), want.jobs_can_increase());
  EXPECT_EQ(got.min_cut().site_in_source_side,
            want.min_cut().site_in_source_side);
  EXPECT_EQ(got.solve(caps), want.solve(caps));
  EXPECT_EQ(got.saturated(), want.saturated());
  expect_same_bits(got.allocation(), want.allocation());
  EXPECT_EQ(got.jobs_can_increase(), want.jobs_can_increase());
  const MinCut cut_got = got.min_cut(), cut_want = want.min_cut();
  EXPECT_EQ(cut_got.job_in_source_side, cut_want.job_in_source_side);
  EXPECT_EQ(cut_got.site_in_source_side, cut_want.site_in_source_side);
  for (int s = 0; s < got.sites(); ++s)
    EXPECT_EQ(got.site_capacity(s), want.site_capacity(s)) << "site " << s;
  for (int j = 0; j < got.jobs(); ++j) {
    EXPECT_EQ(got.solo_ceiling(j), want.solo_ceiling(j)) << "job " << j;
    double across_got = 0.5, across_want = 0.5;
    got.add_row_demand_across(j, cut_got.site_in_source_side, across_got);
    want.add_row_demand_across(j, cut_want.site_in_source_side, across_want);
    EXPECT_EQ(across_got, across_want) << "job " << j;
  }
}

/// Appends `row`'s positive demands to `net` as one job; returns its id.
int add_dense_row(TransportNetwork& net, const std::vector<double>& row) {
  std::vector<int> sites;
  std::vector<double> values;
  for (std::size_t s = 0; s < row.size(); ++s)
    if (row[s] > 0.0) {
      sites.push_back(static_cast<int>(s));
      values.push_back(row[s]);
    }
  return net.add_job(sites, values);
}

TEST(Transport, OnePassBuildMatchesTheIncrementalBuild) {
  // A network built in one pass from dense rows and one fed the same rows
  // by add_job must do identical floating-point work — also when the
  // add_job network was compacted after departures, or shed held flow on
  // a site capacity shrink.
  std::vector<std::pair<Matrix, std::vector<double>>> inputs{
      {kDemands3x2, kCaps2},
      {Matrix{{0, 0}, {10, 10}, {0, 0}}, kCaps2},         // all-zero rows
      {Matrix{{0, 4, 0}, {0, 7, 3}}, {5, 6, 7}},          // all-zero column
      {Matrix{{0, 0, 0}, {0, 0, 0}}, {5, 6, 7}},          // all-zero matrix
      {Matrix{}, kCaps2},                                 // no jobs
  };
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(300 + seed);
    const int n = 6, m = 4;
    Matrix demands(n, std::vector<double>(m, 0.0));
    for (auto& row : demands)
      for (auto& d : row)
        if (rng.bernoulli(0.5)) d = rng.uniform(0.0, 12.0);
    std::vector<double> caps(m);
    for (auto& c : caps) c = rng.bernoulli(0.1) ? 0.0 : rng.uniform(2.0, 20.0);
    inputs.emplace_back(std::move(demands), std::move(caps));
  }
  util::Rng rng(7);
  auto random_caps = [&rng](std::size_t jobs) {
    std::vector<double> caps(jobs);
    for (auto& c : caps) c = rng.uniform(0.0, 15.0);
    return caps;
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const auto& [demands, caps] = inputs[i];
    TransportNetwork dense = dense_network(demands, caps);

    TransportNetwork grown(caps);
    std::vector<int> active;
    for (const auto& row : demands) active.push_back(add_dense_row(grown, row));
    grown.set_active(active);
    for (int round = 0; round < 3; ++round)
      expect_same_network(grown, dense, random_caps(demands.size()));

    // Departures: a departing row after every row, each removed while the
    // network holds a flow through it, then a compaction.
    TransportNetwork compacted(caps);
    std::vector<int> all, departing;
    for (const auto& row : demands) {
      all.push_back(add_dense_row(compacted, row));
      all.push_back(add_dense_row(compacted, {0.5 + rng.uniform(), 8.0}));
      departing.push_back(all.back());
    }
    compacted.set_active(all);
    compacted.solve(std::vector<double>(all.size(), 3.0));
    for (int row : departing) compacted.remove_job(row);
    EXPECT_EQ(compacted.masked_rows(), static_cast<int>(departing.size()));
    compacted.compact();
    EXPECT_EQ(compacted.masked_rows(), 0);
    EXPECT_EQ(compacted.live_rows(), static_cast<int>(demands.size()));
    for (int round = 0; round < 3; ++round)
      expect_same_network(compacted, dense, random_caps(demands.size()));

    // Capacity shrink: halve every site below the flow it carries, so the
    // held flow is shed before the next (warm) probe.
    if (demands.empty()) continue;
    const auto full = random_caps(demands.size());
    grown.solve(full);
    const Matrix held = dense_shares(grown.allocation());
    std::vector<double> shrunk = caps;
    for (std::size_t s = 0; s < caps.size(); ++s) {
      double through = 0.0;
      for (const auto& row : held) through += row[s];
      shrunk[s] = 0.5 * through;
      grown.set_site_capacity(static_cast<int>(s), shrunk[s]);
    }
    TransportNetwork dense_shrunk = dense_network(demands, shrunk);
    for (int round = 0; round < 3; ++round)
      expect_same_network(grown, dense_shrunk, random_caps(demands.size()));
  }
}

TEST(TransportDemandIndex, DenseAdapterMatchesTheSparseBuild) {
  // A test-local dense mirror — the same dense rows fed one by one through
  // add_job — and a one-pass network over rows assembled here must agree
  // in arc order (the same Dinic work) and in every flow bit; the rows
  // must also be what DemandRows::from_dense makes of the dense matrix.
  auto dinic_work = [] {
    return std::pair{counter("amf_flow_augmenting_paths"),
                     counter("amf_flow_maxflow_phases")};
  };
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(500 + seed);
    const int n = 3 + static_cast<int>(seed), m = 5;
    Matrix demands(static_cast<std::size_t>(n),
                   std::vector<double>(static_cast<std::size_t>(m), 0.0));
    DemandRows rows;
    rows.width = m;
    for (auto& row : demands) {
      for (int s = 0; s < m; ++s) {
        const double u = rng.uniform();
        // Zeros, negative zeros and positives; the last site stays empty.
        double d = u < 0.4 ? 0.0 : u < 0.5 ? -0.0 : rng.uniform(0.5, 12.0);
        if (s == m - 1) d = 0.0;
        row[static_cast<std::size_t>(s)] = d;
        if (d > 0.0) rows.entries.push_back({s, d});
      }
      rows.first.push_back(static_cast<int>(rows.entries.size()));
    }
    std::vector<double> caps(static_cast<std::size_t>(m));
    for (auto& c : caps) c = rng.uniform(2.0, 20.0);
    EXPECT_EQ(DemandRows::from_dense(demands, m), rows);

    TransportNetwork dense(caps), sparse(rows, caps);
    std::vector<int> ids;
    for (const auto& row : demands) ids.push_back(add_dense_row(dense, row));
    dense.set_active(ids);
    for (int round = 0; round < 4; ++round) {
      std::vector<double> source(static_cast<std::size_t>(n));
      for (auto& c : source) c = rng.uniform(0.0, 15.0);
      const auto w0 = dinic_work();
      dense.solve(source);
      const auto w1 = dinic_work();
      sparse.solve(source);
      const auto w2 = dinic_work();
      EXPECT_EQ(w1.first - w0.first, w2.first - w1.first);
      EXPECT_EQ(w1.second - w0.second, w2.second - w1.second);
      expect_same_network(sparse, dense, source);
    }
  }
}

TEST(TransportDemandIndex, RowTotalsMatchTheDenseSums) {
  // allocation(&totals) sums each row along its arcs; the totals must be
  // bit-identical to std::accumulate over the dense rows it returns.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(700 + seed);
    Matrix demands(9, std::vector<double>(6, 0.0));
    for (auto& row : demands)
      for (auto& d : row)
        if (rng.bernoulli(0.4)) d = rng.uniform(0.0, 1.0) * 1e-3 + 0.1;
    TransportNetwork net =
        dense_network(demands, {0.3, 1.7, 0.0, 2.2, 0.9, 5.0});
    std::vector<double> source(9);
    for (auto& c : source) c = rng.uniform(0.0, 1.0);
    net.solve(source);
    std::vector<double> totals;
    const ShareRows shares = net.allocation(&totals);
    expect_same_bits(shares, net.allocation());
    const Matrix a = dense_shares(shares);
    ASSERT_EQ(totals.size(), a.size());
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(totals[j]),
                std::bit_cast<std::uint64_t>(
                    std::accumulate(a[j].begin(), a[j].end(), 0.0)))
          << "job " << j;
  }
}

TEST(TransportDemandIndex, SparseBuildValidatesItsRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto rows = [](std::vector<int> first, std::vector<SiteDemand> entries) {
    DemandRows r;
    r.first = std::move(first);
    r.entries = std::move(entries);
    return r;
  };
  EXPECT_NO_THROW(TransportNetwork(rows({0, 1, 1}, {{1, 3.0}}), kCaps2));
  EXPECT_THROW(TransportNetwork(rows({0, 2}, {{1, 3.0}, {0, 3.0}}), kCaps2),
               util::ContractError);  // sites out of order
  EXPECT_THROW(TransportNetwork(rows({0, 2}, {{1, 3.0}, {1, 3.0}}), kCaps2),
               util::ContractError);  // duplicate site
  EXPECT_THROW(TransportNetwork(rows({0, 1}, {{2, 3.0}}), kCaps2),
               util::ContractError);  // site out of range
  EXPECT_THROW(TransportNetwork(rows({0, 1}, {{-1, 3.0}}), kCaps2),
               util::ContractError);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -1.0, nan, inf})
    EXPECT_THROW(TransportNetwork(rows({0, 1}, {{0, bad}}), kCaps2),
                 util::ContractError);  // values must be finite, positive
  EXPECT_THROW(TransportNetwork(rows({0, 2}, {{0, 1.0}}), kCaps2),
               util::ContractError);  // offsets past the entries
  EXPECT_THROW(TransportNetwork(rows({0, 1, 0, 1}, {{0, 1.0}}), kCaps2),
               util::ContractError);  // decreasing offsets
  EXPECT_THROW(TransportNetwork(rows({1}, {{0, 1.0}}), kCaps2),
               util::ContractError);  // first offset not zero
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1, -1}}, 2), util::ContractError);
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1, inf}}, 2), util::ContractError);
  EXPECT_THROW(DemandRows::from_dense(Matrix{{1}}, 2), util::ContractError);
}

TEST(Parametric, SymmetricThreeJobs) {
  // All three jobs rise together and hit the joint capacity at t = 20/3.
  TransportNetwork net = dense_network(kDemands3x2, kCaps2);
  std::vector<ParametricSource> sources(3, {0.0, 1.0});
  auto res = solve_critical_level(net, sources, 0.0, 100.0, 1e-9);
  EXPECT_NEAR(res.level, 20.0 / 3.0, 1e-6);
  EXPECT_FALSE(res.segment_exhausted);
  // Nobody can increase: the whole system is tight.
  for (char c : res.can_increase) EXPECT_FALSE(c);
}

TEST(Parametric, AsymmetricFreezesOnlyBottleneckJobs) {
  // Jobs 0 and 1 compete for site 0; job 2 owns site 1.
  Matrix demands{{10, 0}, {10, 0}, {0, 10}};
  TransportNetwork net = dense_network(demands, kCaps2);
  std::vector<ParametricSource> sources(3, {0.0, 1.0});
  auto res = solve_critical_level(net, sources, 0.0, 100.0, 1e-9);
  EXPECT_NEAR(res.level, 5.0, 1e-6);
  EXPECT_FALSE(res.can_increase[0]);
  EXPECT_FALSE(res.can_increase[1]);
  EXPECT_TRUE(res.can_increase[2]);
}

TEST(Parametric, RespectsFrozenSources) {
  Matrix demands{{10, 0}, {10, 0}, {0, 10}};
  TransportNetwork net = dense_network(demands, kCaps2);
  // Job 0 frozen at 2; jobs 1, 2 rise. Job 1 stops at 8 (site 0 leftover).
  std::vector<ParametricSource> sources{{2.0, 0.0}, {0.0, 1.0}, {0.0, 1.0}};
  auto res = solve_critical_level(net, sources, 0.0, 100.0, 1e-9);
  EXPECT_NEAR(res.level, 8.0, 1e-6);
  EXPECT_FALSE(res.can_increase[1]);
  EXPECT_TRUE(res.can_increase[2]);
  auto alloc = dense_shares(net.allocation());
  EXPECT_NEAR(alloc[0][0], 2.0, 1e-6);
  EXPECT_NEAR(alloc[1][0], 8.0, 1e-6);
}

TEST(Parametric, WeightedSlopes) {
  // Job 0 with weight 3, job 1 with weight 1 sharing one site of 8:
  // level t where 3t + t = 8 -> t = 2.
  Matrix demands{{8}, {8}};
  std::vector<double> caps{8};
  TransportNetwork net = dense_network(demands, caps);
  std::vector<ParametricSource> sources{{0.0, 3.0}, {0.0, 1.0}};
  auto res = solve_critical_level(net, sources, 0.0, 100.0, 1e-9);
  EXPECT_NEAR(res.level, 2.0, 1e-6);
  auto alloc = dense_shares(net.allocation());
  EXPECT_NEAR(alloc[0][0], 6.0, 1e-6);
  EXPECT_NEAR(alloc[1][0], 2.0, 1e-6);
}

TEST(Parametric, SegmentExhaustedWhenFeasibleThroughout) {
  // Single job with demand 10; the segment [0, 0.5] never binds.
  Matrix demands{{10}};
  std::vector<double> caps{10};
  TransportNetwork net = dense_network(demands, caps);
  std::vector<ParametricSource> sources{{0.0, 1.0}};
  auto res = solve_critical_level(net, sources, 0.0, 0.5, 1e-9);
  EXPECT_TRUE(res.segment_exhausted);
  EXPECT_NEAR(res.level, 0.5, 1e-9);
}

TEST(Parametric, DemandCeilingBindsSingleJob) {
  // Job 0 capped by its own demand (3) rather than capacity.
  Matrix demands{{3}, {10}};
  std::vector<double> caps{100};
  TransportNetwork net = dense_network(demands, caps);
  std::vector<ParametricSource> sources(2, {0.0, 1.0});
  auto res = solve_critical_level(net, sources, 0.0, 200.0, 1e-9);
  EXPECT_NEAR(res.level, 3.0, 1e-6);
  EXPECT_FALSE(res.can_increase[0]);
  EXPECT_TRUE(res.can_increase[1]);
}

class ParametricRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ParametricRandomTest, LevelIsMaximalFeasible) {
  util::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const int n = 5, m = 3;
  Matrix demands(n, std::vector<double>(m, 0.0));
  std::vector<double> caps(m);
  for (auto& c : caps) c = rng.uniform(5.0, 20.0);
  for (auto& row : demands)
    for (auto& d : row)
      if (rng.bernoulli(0.7)) d = rng.uniform(0.0, 15.0);
  // Ensure every job can receive something so t* > 0.
  for (int j = 0; j < n; ++j)
    demands[j][static_cast<std::size_t>(rng.uniform_index(m))] += 5.0;

  TransportNetwork net = dense_network(demands, caps);
  std::vector<ParametricSource> sources(n, {0.0, 1.0});
  auto res = solve_critical_level(net, sources, 0.0, 1000.0, 1e-9);

  // Feasible at the reported level...
  std::vector<double> level_caps(n, res.level);
  net.solve(level_caps);
  EXPECT_TRUE(net.saturated(1e-7));
  // ...but not slightly above it.
  std::vector<double> above(n, res.level * (1.0 + 1e-4) + 1e-4);
  net.solve(above);
  EXPECT_FALSE(net.saturated(1e-9));
  // And at least one job is pinned.
  EXPECT_TRUE(std::any_of(res.can_increase.begin(), res.can_increase.end(),
                          [](char c) { return !c; }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParametricRandomTest, ::testing::Range(0, 30));


TEST(MinCostFlow, SingleCheapPath) {
  MinCostFlow net(3);
  net.add_edge(0, 1, 5.0, 2.0);
  net.add_edge(1, 2, 5.0, 3.0);
  auto r = net.solve(0, 2);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(r.cost, 25.0);
}

TEST(MinCostFlow, PrefersCheaperParallelArc) {
  MinCostFlow net(2);
  EdgeId cheap = net.add_edge(0, 1, 3.0, 1.0);
  EdgeId pricey = net.add_edge(0, 1, 3.0, 5.0);
  auto r = net.solve(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(r.flow, 4.0);
  EXPECT_DOUBLE_EQ(net.flow(cheap), 3.0);
  EXPECT_DOUBLE_EQ(net.flow(pricey), 1.0);
  EXPECT_DOUBLE_EQ(r.cost, 3.0 + 5.0);
}

TEST(MinCostFlow, NegativeCostsViaBellmanFord) {
  // A rewarded arc must be used even though a zero-cost path exists.
  MinCostFlow net(3);
  EdgeId rewarded = net.add_edge(0, 1, 2.0, -4.0);
  net.add_edge(1, 2, 2.0, 1.0);
  net.add_edge(0, 2, 10.0, 0.0);
  auto r = net.solve(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(net.flow(rewarded), 2.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0 * (-4.0 + 1.0) + 0.0);
}

TEST(MinCostFlow, RespectsFlowLimit) {
  MinCostFlow net(2);
  net.add_edge(0, 1, 10.0, 1.0);
  auto r = net.solve(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(r.flow, 4.0);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
}

TEST(MinCostFlow, StopsWhenDisconnected) {
  MinCostFlow net(3);
  net.add_edge(0, 1, 5.0, 1.0);
  auto r = net.solve(0, 2);
  EXPECT_DOUBLE_EQ(r.flow, 0.0);
}

TEST(MinCostFlow, MaxFlowValueMatchesDinic) {
  // On the same random graphs, min-cost max-flow must push exactly the
  // Dinic max-flow value.
  util::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int nodes = 7;
    FlowNetwork dinic(nodes);
    MinCostFlow mcmf(nodes);
    for (int u = 0; u < nodes; ++u)
      for (int v = 0; v < nodes; ++v) {
        if (u == v || !rng.bernoulli(0.4)) continue;
        double cap = static_cast<double>(rng.uniform_int(0, 8));
        double cost = static_cast<double>(rng.uniform_int(0, 5));
        dinic.add_edge(u, v, cap);
        mcmf.add_edge(u, v, cap, cost);
      }
    double expected = dinic.max_flow(0, nodes - 1);
    auto r = mcmf.solve(0, nodes - 1);
    EXPECT_NEAR(r.flow, expected, 1e-9) << "trial " << trial;
  }
}

TEST(MinCostFlow, Validation) {
  MinCostFlow net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1.0, 0.0), util::ContractError);
  EXPECT_THROW(net.add_edge(0, 1, -1.0, 0.0), util::ContractError);
  EXPECT_THROW(net.solve(0, 0), util::ContractError);
}

}  // namespace
}  // namespace amf::flow
