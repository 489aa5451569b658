// network.hpp — max-flow substrate.
//
// A real-capacity flow network with Dinic's algorithm, residual
// reachability queries and min-cut extraction. This is the computational
// core underneath every AMF operation: feasibility of a water level is a
// max-flow saturation check, freezing decisions are residual reachability,
// and critical levels are solved on min-cuts (see parametric.hpp).
//
// Capacities are doubles; an epsilon (relative to the largest capacity)
// decides when residual capacity counts as zero. All algorithms are
// deterministic: edge insertion order fixes traversal order.
//
// Layout: arcs live in flat per-arc arrays (head, residual), and adjacency
// is a CSR index (per-node offsets into slot arrays of arc ids and heads)
// rebuilt lazily after the topology grows. Each node's slots list its arc
// ids in ascending order, so traversal order is insertion order. Solves
// reuse the level, cursor and queue buffers: after the first solve on a
// topology, max_flow and the reachability queries allocate nothing beyond
// their returned vectors.
//
// Both BFS loops (Dinic's level graph and the residual reachability
// behind min cuts and can_increase) expand the frontier without
// data-dependent branches: whether a slot is taken follows no pattern a
// branch predictor can learn, and on warm-path networks every array is
// in L1, so mispredictions were most of the BFS time. Per slot they
// evaluate `unlabeled & residual > eps` in full, store the label through
// a select, write the head into the queue's next free entry
// unconditionally and advance the tail by the 0/1 outcome. A slot that
// does not count leaves the label as it was and its queue write is
// overwritten by the next one, so the slots are visited in the same order
// and each node is labeled and enqueued at the same step as with the
// branchy test: level graphs, augmenting paths, flows, cuts and
// reachability sets are bit-identical. The only branch left per slot is
// the level BFS's stop once the sink is labeled, read from the sink's own
// label. Once every node is queued (tail == node_count()), later slots
// still write queue[tail], so the queue holds node_count() + 1 entries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace amf::flow {

/// Node index within a FlowNetwork.
using NodeId = int;
/// Edge index returned by add_edge (identifies the forward arc).
using EdgeId = int;

/// Directed flow network with Dinic max-flow.
///
/// Edges are created in forward/reverse pairs; `add_edge` returns the id of
/// the forward arc (its reverse is `id ^ 1`). Capacities can be updated
/// between solves via `set_capacity` + `reset_flow` for parametric reuse.
///
/// Not safe for concurrent use, const queries included: they share the
/// lazily built adjacency index and the BFS queue.
class FlowNetwork {
 public:
  explicit FlowNetwork(int node_count = 0);

  /// Adds a node; returns its id.
  NodeId add_node();

  int node_count() const { return nodes_; }
  int edge_count() const { return static_cast<int>(to_.size()) / 2; }

  /// Adds a directed edge with the given capacity (>= 0); returns the
  /// forward arc id.
  EdgeId add_edge(NodeId from, NodeId to, double capacity);

  /// Reserves room for `edges` more edges, so a build that knows its size
  /// grows the arc arrays once.
  void reserve_edges(int edges);

  /// Current flow on the forward arc `e` (reverse arc's residual).
  double flow(EdgeId e) const {
    AMF_REQUIRE(forward_arc(e), "flow: not a forward arc id");
    return residual_[static_cast<std::size_t>(e) + 1];
  }

  /// Original capacity of the forward arc `e`.
  double capacity(EdgeId e) const {
    AMF_REQUIRE(forward_arc(e), "capacity: not a forward arc id");
    return orig_[static_cast<std::size_t>(e) / 2];
  }

  /// Residual capacity of arc `a`, forward or reverse (`a ^ 1` is its
  /// pair): what the traversals compare against eps.
  double residual(EdgeId a) const {
    AMF_REQUIRE(a >= 0 && a < static_cast<EdgeId>(to_.size()),
                "residual: bad arc id");
    return residual_[static_cast<std::size_t>(a)];
  }

  /// Updates the capacity of forward arc `e`. Takes effect at the next
  /// reset_flow(); flows already pushed are not adjusted.
  void set_capacity(EdgeId e, double capacity);

  /// Removes `amount` (>= 0) of flow from forward arc `e` with immediate
  /// effect: forward residual grows, reverse residual shrinks. The caller
  /// must restore conservation by cancelling the same amount on the other
  /// arcs of the path (warm-restart primitive; see TransportNetwork).
  void cancel_flow(EdgeId e, double amount) {
    AMF_REQUIRE(forward_arc(e), "cancel_flow: not a forward arc id");
    AMF_REQUIRE(amount >= 0.0, "cancel_flow: negative amount");
    cut_valid_ = false;
    residual_[static_cast<std::size_t>(e)] += amount;
    residual_[static_cast<std::size_t>(e) + 1] -= amount;
  }

  /// Sets the capacity of forward arc `e` with immediate effect, keeping
  /// the flow already on the arc: the forward residual becomes
  /// capacity - flow (clamped at zero against rounding dust). The caller
  /// must have cancelled any flow above the new capacity first.
  void rebase_capacity(EdgeId e, double capacity) {
    AMF_REQUIRE(forward_arc(e), "rebase_capacity: not a forward arc id");
    AMF_REQUIRE(capacity >= 0.0, "rebase_capacity: negative capacity");
    cut_valid_ = false;
    orig_[static_cast<std::size_t>(e) / 2] = capacity;
    residual_[static_cast<std::size_t>(e)] =
        std::max(0.0, capacity - residual_[static_cast<std::size_t>(e) + 1]);
  }

  /// Overwrites the flow on forward arc `e` (0 <= flow <= capacity):
  /// reverse residual becomes `flow`, forward residual the remaining
  /// headroom. Used to transplant a flow onto a rebuilt network; the
  /// caller is responsible for conservation across arcs.
  void set_flow(EdgeId e, double flow);

  /// Clears all flow (residuals return to capacities).
  void reset_flow();

  /// Runs Dinic from `source` to `sink` on top of any existing flow and
  /// returns the *additional* flow pushed. Residual capacities below `eps`
  /// are treated as zero.
  double max_flow(NodeId source, NodeId sink, double eps = kDefaultEps);

  /// True when the flow on the network is the result of a max_flow that
  /// ran to completion (it was not cut short by the deadline) and no
  /// mutator has run since. Memos of a solve's result key on this.
  bool holds_max_flow() const { return cut_valid_; }

  /// Nodes reachable from `from` in the residual graph (arcs with residual
  /// > eps). After a max_flow this gives the source side of a min cut when
  /// called with the source. Dinic's final, sink-less level graph is that
  /// set, so right after a completed max_flow, and before any mutator
  /// runs, a query with the same source and eps reads it back instead of
  /// traversing again.
  std::vector<char> residual_reachable_from(NodeId from,
                                            double eps = kDefaultEps) const;

  /// Nodes residual-reachable from any node of `seeds`: the residual
  /// closure of a node set, in one traversal (duplicate seeds are fine).
  std::vector<char> residual_reachable_from(std::span<const NodeId> seeds,
                                            double eps = kDefaultEps) const;

  /// Nodes that can reach `to` through the residual graph. After a
  /// max_flow, a job node with `true` here can still increase its
  /// throughput to the sink — the freezing test of progressive filling.
  std::vector<char> residual_can_reach(NodeId to,
                                       double eps = kDefaultEps) const;

  /// Total flow currently leaving `node` (sum over forward arcs minus
  /// incoming reverse flow is not needed for sources; this sums flow on
  /// arcs out of `node`).
  double outflow(NodeId node) const;

  static constexpr double kDefaultEps = 1e-9;

 private:
  bool forward_arc(EdgeId e) const {
    return e >= 0 && e < static_cast<EdgeId>(to_.size()) && (e % 2) == 0;
  }
  void ensure_csr() const;
  /// BFS from `seeds` over slots whose arc (pair_bit 0) or paired arc
  /// (pair_bit 1) has residual > eps: the nodes the seeds reach, or the
  /// nodes that reach a seed.
  std::vector<char> residual_bfs(std::span<const NodeId> seeds, double eps,
                                 EdgeId pair_bit) const;
  bool bfs_levels(NodeId source, NodeId sink, double eps);
  double dfs_blocking(NodeId v, NodeId sink, double pushed, double eps);

  int nodes_ = 0;
  std::vector<NodeId> to_;        // head node per arc
  std::vector<double> residual_;  // remaining capacity per arc
  std::vector<double> orig_;      // original capacity of forward arcs (by pair)

  // CSR adjacency: node v's slots are [first_[v], first_[v + 1]); slot k
  // holds arc id arc_[k] and its head head_[k]. Rebuilt on demand once
  // add_node/add_edge mark it stale.
  mutable std::vector<int> first_;
  mutable std::vector<EdgeId> arc_;
  mutable std::vector<NodeId> head_;
  mutable std::vector<NodeId> queue_;  // BFS queue: one entry per node + 1
  mutable bool csr_stale_ = true;

  std::vector<int> level_;  // Dinic level per node (-1 = unlabeled)
  std::vector<int> iter_;   // blocking-flow cursor (slot) per node

  // Set when max_flow ended on a level BFS that missed the sink: level_
  // then marks exactly the nodes residual-reachable from cut_source_ at
  // cut_eps_. Every mutator clears it.
  bool cut_valid_ = false;
  NodeId cut_source_ = -1;
  double cut_eps_ = 0.0;
};

}  // namespace amf::flow
