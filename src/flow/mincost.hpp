// mincost.hpp — minimum-cost flow substrate.
//
// Successive shortest paths with node potentials: an initial Bellman–Ford
// pass absorbs negative arc costs into the potentials, after which every
// augmentation runs Dijkstra on reduced costs. Built for the library's
// allocation-sized networks (thousands of arcs), real-valued capacities
// and costs.
//
// Used by the stability add-on (core/stability.hpp): the churn-minimizing
// realization of a fixed aggregate vector is a min-cost flow where each
// job→site cell splits into a "keep" arc (up to the previous share,
// reward -1) and a "change" arc (the rest of the demand cap, cost +1).
#pragma once

#include <limits>
#include <vector>

#include "flow/network.hpp"
#include "util/deadline.hpp"

namespace amf::flow {

/// Directed min-cost max-flow network (parallel arcs allowed).
class MinCostFlow {
 public:
  explicit MinCostFlow(int node_count = 0);

  NodeId add_node();
  int node_count() const { return static_cast<int>(adj_.size()); }

  /// Adds an arc with capacity >= 0 and arbitrary (finite) cost; returns
  /// the forward arc id (reverse is id ^ 1).
  EdgeId add_edge(NodeId from, NodeId to, double capacity, double cost);

  /// Flow currently on forward arc `e`.
  double flow(EdgeId e) const;

  struct Result {
    double flow = 0.0;  ///< total flow pushed
    double cost = 0.0;  ///< total cost of the flow
    /// False when the stop token fired before the limit was reached or
    /// the paths ran out. The flow pushed so far is still a valid
    /// (partial) flow — augmentations are atomic — just not a maximal or
    /// cost-optimal one.
    bool complete = true;
  };

  /// Pushes up to `limit` units from source to sink along cheapest paths
  /// (min-cost max-flow when limit is infinite). Augments only while a
  /// path exists; per-arc residuals below eps count as empty. May be
  /// called once per instance (no incremental reuse). `stop` (explicit,
  /// else the ambient token) is polled between augmentations.
  Result solve(NodeId source, NodeId sink,
               double limit = std::numeric_limits<double>::infinity(),
               double eps = FlowNetwork::kDefaultEps,
               const util::StopToken* stop = nullptr);

 private:
  std::vector<std::vector<EdgeId>> adj_;
  std::vector<NodeId> to_;
  std::vector<double> residual_;
  std::vector<double> cost_;
};

}  // namespace amf::flow
