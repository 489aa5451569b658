// flow_kernel_test.cpp — differential test of FlowNetwork's Dinic kernel.
//
// FlowNetwork's level BFS and residual BFS expand their frontier without
// data-dependent branches. This file keeps a reference copy of the
// branchy kernel they replaced (short-circuit tests, conditional label
// store and enqueue) and checks, on a few hundred seeded networks, that
// the two agree bit for bit: max_flow's return value, every arc's
// residual (so every edge's flow), holds_max_flow(), and the
// reachability sets of residual_reachable_from (from one node and from a
// seed set) and residual_can_reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "flow/network.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace amf::flow {
namespace {

struct Edge {
  NodeId from;
  NodeId to;
};

/// The branchy Dinic kernel, on the same arc layout as FlowNetwork: arcs
/// in forward/reverse pairs, a CSR index whose slots list each node's arc
/// ids in ascending order. It starts from a FlowNetwork's residuals, so
/// both solve from exactly the same state.
class ReferenceDinic {
 public:
  ReferenceDinic(int nodes, const std::vector<Edge>& edges,
                 const FlowNetwork& net)
      : n_(static_cast<std::size_t>(nodes)) {
    for (const Edge& e : edges) {
      to_.push_back(e.to);
      to_.push_back(e.from);
    }
    for (std::size_t a = 0; a < to_.size(); ++a)
      residual_.push_back(net.residual(static_cast<EdgeId>(a)));
    first_.assign(n_ + 1, 0);
    for (std::size_t a = 0; a < to_.size(); ++a)
      ++first_[static_cast<std::size_t>(to_[a ^ 1]) + 1];
    for (std::size_t v = 0; v < n_; ++v) first_[v + 1] += first_[v];
    std::vector<int> cursor(first_.begin(), first_.end() - 1);
    arc_.resize(to_.size());
    head_.resize(to_.size());
    for (std::size_t a = 0; a < to_.size(); ++a) {
      const auto slot = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(to_[a ^ 1])]++);
      arc_[slot] = static_cast<EdgeId>(a);
      head_[slot] = to_[a];
    }
    level_.resize(n_);
    iter_.resize(n_);
  }

  double max_flow(NodeId source, NodeId sink, double eps) {
    completed_ = false;
    first_sink_level_ = -1;
    double total = 0.0;
    const util::Deadline deadline = util::ambient_deadline();
    while (!deadline.expired()) {
      if (!bfs_levels(source, sink, eps)) {
        completed_ = true;
        break;
      }
      if (first_sink_level_ < 0)
        first_sink_level_ = level_[static_cast<std::size_t>(sink)];
      std::copy(first_.begin(), first_.end() - 1, iter_.begin());
      for (;;) {
        const double pushed = dfs_blocking(
            source, sink, std::numeric_limits<double>::infinity(), eps);
        if (pushed <= eps) break;
        total += pushed;
      }
    }
    return total;
  }

  /// pair_bit 0: nodes `start` reaches; 1: nodes that reach `start`.
  std::vector<char> residual_bfs(NodeId start, double eps,
                                 EdgeId pair_bit) const {
    return residual_bfs(std::vector<NodeId>{start}, eps, pair_bit);
  }

  /// The same from every node of `seeds`, each queued once in seed order.
  std::vector<char> residual_bfs(const std::vector<NodeId>& seeds,
                                 double eps, EdgeId pair_bit) const {
    std::vector<char> seen(n_, 0);
    std::vector<NodeId> queue(n_);
    std::size_t head = 0, tail = 0;
    for (const NodeId seed : seeds) {
      if (!seen[static_cast<std::size_t>(seed)]) {
        seen[static_cast<std::size_t>(seed)] = 1;
        queue[tail++] = seed;
      }
    }
    while (head < tail) {
      const auto v = static_cast<std::size_t>(queue[head++]);
      const auto end = static_cast<std::size_t>(first_[v + 1]);
      for (auto k = static_cast<std::size_t>(first_[v]); k < end; ++k) {
        const NodeId u = head_[k];
        if (!seen[static_cast<std::size_t>(u)] &&
            residual_[static_cast<std::size_t>(arc_[k] ^ pair_bit)] > eps) {
          seen[static_cast<std::size_t>(u)] = 1;
          queue[tail++] = u;
        }
      }
    }
    return seen;
  }

  bool completed() const { return completed_; }
  double residual(std::size_t a) const { return residual_[a]; }
  /// The sink's level in the last max_flow's first level graph (-1 when
  /// that call ran no phase).
  int first_sink_level() const { return first_sink_level_; }

 private:
  bool bfs_levels(NodeId source, NodeId sink, double eps) {
    std::fill(level_.begin(), level_.end(), -1);
    std::vector<NodeId> queue(n_);
    level_[static_cast<std::size_t>(source)] = 0;
    queue[0] = source;
    std::size_t head = 0, tail = 1;
    while (head < tail) {
      const auto v = static_cast<std::size_t>(queue[head++]);
      const int next = level_[v] + 1;
      const auto end = static_cast<std::size_t>(first_[v + 1]);
      for (auto k = static_cast<std::size_t>(first_[v]); k < end; ++k) {
        const auto u = static_cast<std::size_t>(head_[k]);
        if (level_[u] < 0 &&
            residual_[static_cast<std::size_t>(arc_[k])] > eps) {
          level_[u] = next;
          if (head_[k] == sink) return true;
          queue[tail++] = head_[k];
        }
      }
    }
    return false;
  }

  double dfs_blocking(NodeId v, NodeId sink, double pushed, double eps) {
    if (v == sink) return pushed;
    const int next = level_[static_cast<std::size_t>(v)] + 1;
    int& it = iter_[static_cast<std::size_t>(v)];
    const int end = first_[static_cast<std::size_t>(v) + 1];
    for (; it < end; ++it) {
      const auto e =
          static_cast<std::size_t>(arc_[static_cast<std::size_t>(it)]);
      const NodeId u = head_[static_cast<std::size_t>(it)];
      if (residual_[e] > eps && level_[static_cast<std::size_t>(u)] == next) {
        const double d =
            dfs_blocking(u, sink, std::min(pushed, residual_[e]), eps);
        if (d > eps) {
          residual_[e] -= d;
          residual_[e ^ 1] += d;
          return d;
        }
      }
    }
    return 0.0;
  }

  std::size_t n_;
  std::vector<NodeId> to_;
  std::vector<double> residual_;
  std::vector<int> first_;
  std::vector<EdgeId> arc_;
  std::vector<NodeId> head_;
  std::vector<int> level_;
  std::vector<int> iter_;
  bool completed_ = false;
  int first_sink_level_ = -1;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A network under test: the FlowNetwork and its edge list, with the
/// source and sink the solves use.
struct Case {
  FlowNetwork net;
  std::vector<Edge> edges;
  NodeId source = 0;
  NodeId sink = 1;

  explicit Case(int nodes) : net(nodes) {}
  void add(NodeId u, NodeId v, double cap) {
    net.add_edge(u, v, cap);
    edges.push_back({u, v});
  }
};

constexpr double kEps = FlowNetwork::kDefaultEps;

NodeId pick_node(util::Rng& rng, int nodes) {
  return static_cast<NodeId>(
      rng.uniform_index(static_cast<std::uint64_t>(nodes)));
}

/// Capacities drawn from a small palette, so parallel arcs, zero arcs,
/// residuals exactly at eps (not > eps, so not traversable) and exact
/// ties between paths all occur, with some arbitrary reals mixed in.
double pick_capacity(util::Rng& rng) {
  static constexpr double kPalette[] = {0.0, kEps, 2 * kEps, 0.25, 0.5,
                                        1.0, 1.5,  3.0,      8.0};
  constexpr std::uint64_t kCount = sizeof(kPalette) / sizeof(kPalette[0]);
  const std::uint64_t i = rng.uniform_index(kCount + 2);
  return i < kCount ? kPalette[i] : rng.uniform(0.0, 10.0);
}

/// Arbitrary digraph without self-loops, with parallel arcs (an arc
/// repeats its predecessor's endpoints a fifth of the time).
Case random_graph(util::Rng& rng) {
  const int n = 2 + static_cast<int>(rng.uniform_index(40));
  Case c(n);
  c.sink = 1 + pick_node(rng, n - 1);
  const auto extra = rng.uniform_index(static_cast<std::uint64_t>(4 * n));
  const int m = n + static_cast<int>(extra);
  for (int k = 0; k < m; ++k) {
    if (!c.edges.empty() && rng.bernoulli(0.2)) {
      c.add(c.edges.back().from, c.edges.back().to, pick_capacity(rng));
      continue;
    }
    const NodeId u = pick_node(rng, n), v = pick_node(rng, n);
    if (u != v) c.add(u, v, pick_capacity(rng));
  }
  return c;
}

/// Layers of nodes with arcs from each layer to the next (and a few back
/// and skip arcs); the sink closes layer `depth`, with further layers
/// beyond it, so the level BFS stops at a known depth mid-graph.
Case layered(util::Rng& rng, int depth) {
  const int width = 1 + static_cast<int>(rng.uniform_index(5));
  const int layers = depth + 1 + static_cast<int>(rng.uniform_index(3));
  // Node 0 is the source; layer L (1-based) holds nodes
  // 1 + (L-1)*width .. L*width; the sink is the last node of `depth`.
  Case c(1 + layers * width);
  auto node = [&](int layer, int i) {
    return layer == 0 ? 0 : 1 + (layer - 1) * width + i;
  };
  c.sink = node(depth, width - 1);
  for (int layer = 0; layer < layers; ++layer) {
    const int from_width = layer == 0 ? 1 : width;
    for (int i = 0; i < from_width; ++i) {
      for (int j = 0; j < width; ++j) {
        if (rng.bernoulli(0.7))
          c.add(node(layer, i), node(layer + 1, j), pick_capacity(rng));
      }
      if (layer + 2 <= layers && rng.bernoulli(0.2))
        c.add(node(layer, i), node(layer + 2, 0), pick_capacity(rng));
      if (layer > 0 && rng.bernoulli(0.2))
        c.add(node(layer, i), node(layer - 1, 0), pick_capacity(rng));
    }
  }
  return c;
}

/// A ring 0 -> 1 -> ... -> n-1 -> 0 of ample capacity plus random chords:
/// every node reaches every other, so residual BFSes label every node and
/// the branch-free frontier writes its queue's spare entry.
Case ring(util::Rng& rng) {
  const int n = 2 + static_cast<int>(rng.uniform_index(30));
  Case c(n);
  c.sink = n / 2;
  for (int v = 0; v < n; ++v) c.add(v, (v + 1) % n, 100.0);
  for (int k = 0; k < n; ++k) {
    const NodeId u = pick_node(rng, n), v = pick_node(rng, n);
    if (u != v) c.add(u, v, pick_capacity(rng));
  }
  return c;
}

/// Source -> jobs -> sites -> sink, the shape progressive filling solves.
Case transport(util::Rng& rng) {
  const int jobs = 1 + static_cast<int>(rng.uniform_index(30));
  const int sites = 1 + static_cast<int>(rng.uniform_index(8));
  Case c(2 + jobs + sites);
  for (int j = 0; j < jobs; ++j) c.add(0, 2 + j, pick_capacity(rng));
  for (int j = 0; j < jobs; ++j) {
    for (int s = 0; s < sites; ++s) {
      if (rng.bernoulli(0.5))
        c.add(2 + j, 2 + jobs + s, std::numeric_limits<double>::infinity());
    }
  }
  for (int s = 0; s < sites; ++s) c.add(2 + jobs + s, 1, pick_capacity(rng));
  return c;
}

/// What the comparisons saw, so the test can check its cases reached the
/// situations it names.
struct Coverage {
  int all_labeled = 0;             // a residual BFS labeled every node
  int eps_residuals = 0;           // an arc's residual was exactly eps
  std::set<int> sink_levels;       // sink levels of first level graphs
};

/// Runs max_flow on both kernels from the network's current state and
/// checks every observable result bit for bit.
void solve_and_compare(Case& c, double eps, util::Rng& rng, Coverage& cov,
                       const char* what) {
  SCOPED_TRACE(what);
  ReferenceDinic ref(c.net.node_count(), c.edges, c.net);
  double got = 0.0;
  {
    // A kernel whose phases stop making progress would loop forever; the
    // guard turns that into a stopped max flow, which the comparison of
    // holds_max_flow() below reports. A correct solve here takes
    // microseconds.
    util::ScopedDeadline guard(util::Deadline::earlier(
        util::ambient_deadline(), util::Deadline::after_ms(5000.0)));
    got = c.net.max_flow(c.source, c.sink, eps);
  }
  const double want = ref.max_flow(c.source, c.sink, eps);
  if (ref.first_sink_level() > 0)
    cov.sink_levels.insert(ref.first_sink_level());
  ASSERT_EQ(bits(got), bits(want)) << got << " vs " << want;
  ASSERT_EQ(c.net.holds_max_flow(), ref.completed());
  const auto arcs = 2 * c.edges.size();
  for (std::size_t a = 0; a < arcs; ++a) {
    ASSERT_EQ(bits(c.net.residual(static_cast<EdgeId>(a))),
              bits(ref.residual(a)))
        << "arc " << a;
    if (ref.residual(a) == eps) ++cov.eps_residuals;
  }
  for (std::size_t e = 0; e < arcs; e += 2)
    ASSERT_EQ(bits(c.net.flow(static_cast<EdgeId>(e))),
              bits(ref.residual(e + 1)));

  const NodeId other = pick_node(rng, c.net.node_count());
  // From the source at the solve's eps the cut cache may answer; another
  // node or eps always traverses.
  const std::vector<std::pair<NodeId, double>> from_queries = {
      {c.source, eps}, {c.source, 2 * eps}, {other, eps}};
  for (const auto& [node, at] : from_queries) {
    const std::vector<char> want_seen = ref.residual_bfs(node, at, 0);
    ASSERT_EQ(c.net.residual_reachable_from(node, at), want_seen)
        << "reachable from " << node << " at " << at;
    if (std::all_of(want_seen.begin(), want_seen.end(),
                    [](char s) { return s != 0; }))
      ++cov.all_labeled;
  }
  // A seed set, duplicates and the source included now and then (the
  // certificate of a global-cut start seeds it with stuck jobs).
  std::vector<NodeId> seeds;
  const auto seed_count = rng.uniform_index(4);
  for (std::uint64_t k = 0; k < seed_count; ++k)
    seeds.push_back(pick_node(rng, c.net.node_count()));
  if (rng.bernoulli(0.3)) seeds.push_back(c.source);
  if (!seeds.empty() && rng.bernoulli(0.3)) seeds.push_back(seeds.front());
  ASSERT_EQ(c.net.residual_reachable_from(seeds, eps),
            ref.residual_bfs(seeds, eps, 0))
      << "reachable from " << seeds.size() << " seeds";
  for (const NodeId node : {c.sink, other}) {
    const std::vector<char> want_seen = ref.residual_bfs(node, eps, 1);
    ASSERT_EQ(c.net.residual_can_reach(node, eps), want_seen)
        << "can reach " << node;
    if (std::all_of(want_seen.begin(), want_seen.end(),
                    [](char s) { return s != 0; }))
      ++cov.all_labeled;
  }
}

/// Solve, perturb (the warm-restart mutators), re-solve: each step
/// compared against the reference.
void exercise(Case& c, util::Rng& rng, Coverage& cov) {
  const double eps = rng.bernoulli(0.8) ? kEps : 0.25;
  // Before any solve: the queries traverse the fresh network.
  ASSERT_EQ(c.net.residual_can_reach(c.sink, eps),
            ReferenceDinic(c.net.node_count(), c.edges, c.net)
                .residual_bfs(c.sink, eps, 1));
  ASSERT_NO_FATAL_FAILURE(solve_and_compare(c, eps, rng, cov, "cold solve"));
  if (c.edges.empty()) return;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 3; ++k) {
      const auto e = static_cast<EdgeId>(
          2 * rng.uniform_index(static_cast<std::uint64_t>(c.edges.size())));
      switch (rng.uniform_index(3)) {
        case 0:
          c.net.rebase_capacity(e,
                                std::max(c.net.flow(e), pick_capacity(rng)));
          break;
        case 1:
          c.net.cancel_flow(e, c.net.flow(e) * 0.5);
          break;
        default:
          // Capped: an uncapped job->site arc would get an infinite flow.
          c.net.set_flow(e, std::min(c.net.capacity(e), 10.0) * rng.uniform());
          break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        solve_and_compare(c, eps, rng, cov, "warm re-solve"));
  }
}

TEST(FlowNetworkKernel, MatchesBranchyReferenceOnRandomGraphs) {
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(9000 + seed);
    Case c = random_graph(rng);
    ASSERT_NO_FATAL_FAILURE(exercise(c, rng, cov));
  }
  EXPECT_GT(cov.eps_residuals, 0);
}

TEST(FlowNetworkKernel, MatchesBranchyReferenceWithSinksAtEveryDepth) {
  Coverage cov;
  for (int depth = 1; depth <= 6; ++depth) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "depth " << depth << " seed " << seed);
      util::Rng rng(static_cast<std::uint64_t>(depth) * 1000 + seed);
      Case c = layered(rng, depth);
      ASSERT_NO_FATAL_FAILURE(exercise(c, rng, cov));
    }
  }
  // Skip arcs shorten some paths and back arcs lengthen others, but the
  // level BFS met the sink at every depth from 1 to 6.
  for (int depth = 1; depth <= 6; ++depth)
    EXPECT_EQ(cov.sink_levels.count(depth), 1u) << "depth " << depth;
}

TEST(FlowNetworkKernel, MatchesBranchyReferenceWhenEveryNodeIsLabeled) {
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(7000 + seed);
    Case c = ring(rng);
    ASSERT_NO_FATAL_FAILURE(exercise(c, rng, cov));
  }
  // Each query that labeled every node wrote the queue's spare entry;
  // the rings give at least as many of them as there are rings.
  EXPECT_GE(cov.all_labeled, 60);
}

TEST(FlowNetworkKernel, MatchesBranchyReferenceOnTransportNetworks) {
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(5000 + seed);
    Case c = transport(rng);
    ASSERT_NO_FATAL_FAILURE(exercise(c, rng, cov));
  }
}

TEST(FlowNetworkKernel, ExpiredDeadlineMatchesReference) {
  // A max flow cut short before its first phase: both kernels push
  // nothing and neither holds a max flow.
  util::Rng rng(42);
  Case c = transport(rng);
  Coverage cov;
  util::ScopedDeadline scope(util::Deadline::after_ms(0.0));
  solve_and_compare(c, kEps, rng, cov, "expired deadline");
  EXPECT_FALSE(c.net.holds_max_flow());
}

}  // namespace
}  // namespace amf::flow
