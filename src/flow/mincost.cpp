#include "flow/mincost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace amf::flow {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MinCostFlow::MinCostFlow(int node_count) {
  AMF_REQUIRE(node_count >= 0, "node count must be non-negative");
  adj_.resize(static_cast<std::size_t>(node_count));
}

NodeId MinCostFlow::add_node() {
  adj_.emplace_back();
  return static_cast<NodeId>(adj_.size()) - 1;
}

EdgeId MinCostFlow::add_edge(NodeId from, NodeId to, double capacity,
                             double cost) {
  AMF_REQUIRE(from >= 0 && from < node_count(), "add_edge: bad source node");
  AMF_REQUIRE(to >= 0 && to < node_count(), "add_edge: bad target node");
  AMF_REQUIRE(capacity >= 0.0, "add_edge: negative capacity");
  AMF_REQUIRE(std::isfinite(cost), "add_edge: cost must be finite");
  EdgeId id = static_cast<EdgeId>(to_.size());
  to_.push_back(to);
  residual_.push_back(capacity);
  cost_.push_back(cost);
  adj_[static_cast<std::size_t>(from)].push_back(id);
  to_.push_back(from);
  residual_.push_back(0.0);
  cost_.push_back(-cost);
  adj_[static_cast<std::size_t>(to)].push_back(id + 1);
  return id;
}

double MinCostFlow::flow(EdgeId e) const {
  AMF_REQUIRE(e >= 0 && e < static_cast<EdgeId>(to_.size()) && (e % 2) == 0,
              "flow: not a forward arc id");
  return residual_[static_cast<std::size_t>(e) + 1];
}

MinCostFlow::Result MinCostFlow::solve(NodeId source, NodeId sink,
                                       double limit, double eps) {
  AMF_REQUIRE(source >= 0 && source < node_count(), "bad source");
  AMF_REQUIRE(sink >= 0 && sink < node_count(), "bad sink");
  AMF_REQUIRE(source != sink, "source == sink");
  AMF_REQUIRE(limit >= 0.0, "negative flow limit");
  const std::size_t nodes = adj_.size();

  // Bellman–Ford initializes the potentials so negative arc costs become
  // non-negative reduced costs for the Dijkstra phases.
  Result result;
  std::vector<double> potential(nodes, kInf);
  potential[static_cast<std::size_t>(source)] = 0.0;
  for (std::size_t round = 0; round + 1 < nodes; ++round) {
    bool changed = false;
    for (std::size_t v = 0; v < nodes; ++v) {
      if (potential[v] == kInf) continue;
      for (EdgeId e : adj_[v]) {
        if (residual_[static_cast<std::size_t>(e)] <= eps) continue;
        auto u = static_cast<std::size_t>(to_[static_cast<std::size_t>(e)]);
        double candidate = potential[v] + cost_[static_cast<std::size_t>(e)];
        if (candidate < potential[u] - 1e-15) {
          potential[u] = candidate;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  // Unreached nodes get potential 0: they will only be touched once some
  // augmentation opens a residual arc into them, at which point Dijkstra
  // distances re-anchor them.
  for (auto& p : potential)
    if (p == kInf) p = 0.0;

  std::vector<double> dist(nodes);
  std::vector<EdgeId> parent_edge(nodes);
  std::vector<char> done(nodes);

  while (result.flow < limit) {
    // Dijkstra on reduced costs.
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(done.begin(), done.end(), 0);
    dist[static_cast<std::size_t>(source)] = 0.0;
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      auto [d, v] = heap.top();
      heap.pop();
      auto vi = static_cast<std::size_t>(v);
      if (done[vi]) continue;
      done[vi] = 1;
      for (EdgeId e : adj_[vi]) {
        if (residual_[static_cast<std::size_t>(e)] <= eps) continue;
        auto u = static_cast<std::size_t>(to_[static_cast<std::size_t>(e)]);
        if (done[u]) continue;
        // Reduced costs are non-negative up to float noise; clamp.
        double rc = std::max(0.0, cost_[static_cast<std::size_t>(e)] +
                                      potential[vi] - potential[u]);
        if (d + rc < dist[u] - 1e-15) {
          dist[u] = d + rc;
          parent_edge[u] = e;
          heap.emplace(dist[u], static_cast<NodeId>(u));
        }
      }
    }
    auto si = static_cast<std::size_t>(sink);
    if (dist[si] == kInf) break;  // no augmenting path left

    for (std::size_t v = 0; v < nodes; ++v)
      if (dist[v] < kInf) potential[v] += dist[v];

    // Bottleneck along the path, capped by the remaining limit.
    double push = limit - result.flow;
    for (NodeId v = sink; v != source;) {
      EdgeId e = parent_edge[static_cast<std::size_t>(v)];
      push = std::min(push, residual_[static_cast<std::size_t>(e)]);
      v = to_[static_cast<std::size_t>(e ^ 1)];
    }
    if (push <= eps) break;
    for (NodeId v = sink; v != source;) {
      EdgeId e = parent_edge[static_cast<std::size_t>(v)];
      residual_[static_cast<std::size_t>(e)] -= push;
      residual_[static_cast<std::size_t>(e ^ 1)] += push;
      result.cost += push * cost_[static_cast<std::size_t>(e)];
      v = to_[static_cast<std::size_t>(e ^ 1)];
    }
    result.flow += push;
  }
  return result;
}

}  // namespace amf::flow
