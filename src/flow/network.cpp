#include "flow/network.hpp"

#include <limits>

#include "obs/metrics.hpp"
#include "util/deadline.hpp"

namespace amf::flow {

namespace {

// Dinic work counters. Phases and paths are accumulated locally inside
// max_flow and published with one shard add per call, so the inner loops
// stay free of registry traffic.
struct MaxFlowCounters {
  obs::Counter calls;
  obs::Counter phases;
  obs::Counter paths;
  MaxFlowCounters() {
    auto& reg = obs::Registry::global();
    calls = reg.counter("amf_flow_maxflow_calls",
                        "Dinic max-flow invocations");
    phases = reg.counter("amf_flow_maxflow_phases",
                         "BFS level-graph phases across all max-flow calls");
    paths = reg.counter("amf_flow_augmenting_paths",
                        "augmenting paths pushed across all max-flow calls");
  }
};

MaxFlowCounters& mf_counters() {
  static MaxFlowCounters counters;
  return counters;
}

}  // namespace

FlowNetwork::FlowNetwork(int node_count) {
  AMF_REQUIRE(node_count >= 0, "node count must be non-negative");
  nodes_ = node_count;
}

NodeId FlowNetwork::add_node() {
  cut_valid_ = false;
  csr_stale_ = true;
  return nodes_++;
}

EdgeId FlowNetwork::add_edge(NodeId from, NodeId to, double capacity) {
  AMF_REQUIRE(from >= 0 && from < node_count(), "add_edge: bad source node");
  AMF_REQUIRE(to >= 0 && to < node_count(), "add_edge: bad target node");
  AMF_REQUIRE(capacity >= 0.0, "add_edge: negative capacity");
  cut_valid_ = false;
  csr_stale_ = true;
  EdgeId id = static_cast<EdgeId>(to_.size());
  to_.push_back(to);
  residual_.push_back(capacity);
  to_.push_back(from);
  residual_.push_back(0.0);
  orig_.push_back(capacity);
  return id;
}

void FlowNetwork::reserve_edges(int edges) {
  AMF_REQUIRE(edges >= 0, "reserve_edges: negative count");
  const std::size_t arcs = to_.size() + 2 * static_cast<std::size_t>(edges);
  to_.reserve(arcs);
  residual_.reserve(arcs);
  orig_.reserve(arcs / 2);
}

void FlowNetwork::set_capacity(EdgeId e, double capacity) {
  AMF_REQUIRE(forward_arc(e), "set_capacity: not a forward arc id");
  AMF_REQUIRE(capacity >= 0.0, "set_capacity: negative capacity");
  cut_valid_ = false;
  orig_[static_cast<std::size_t>(e) / 2] = capacity;
}

void FlowNetwork::set_flow(EdgeId e, double flow) {
  AMF_REQUIRE(forward_arc(e), "set_flow: not a forward arc id");
  AMF_REQUIRE(flow >= 0.0, "set_flow: negative flow");
  cut_valid_ = false;
  residual_[static_cast<std::size_t>(e)] =
      std::max(0.0, orig_[static_cast<std::size_t>(e) / 2] - flow);
  residual_[static_cast<std::size_t>(e) + 1] = flow;
}

void FlowNetwork::reset_flow() {
  cut_valid_ = false;
  for (std::size_t e = 0; e < to_.size(); e += 2) {
    residual_[e] = orig_[e / 2];
    residual_[e + 1] = 0.0;
  }
}

void FlowNetwork::ensure_csr() const {
  if (!csr_stale_) return;
  // Stable counting sort of arc ids by tail (the head of the paired arc):
  // each node's slots list its arcs in ascending id, i.e. insertion order.
  const std::size_t n = static_cast<std::size_t>(nodes_);
  const std::size_t arcs = to_.size();
  first_.assign(n + 1, 0);
  for (std::size_t a = 0; a < arcs; ++a)
    ++first_[static_cast<std::size_t>(to_[a ^ 1]) + 1];
  for (std::size_t v = 0; v < n; ++v) first_[v + 1] += first_[v];
  arc_.resize(arcs);
  head_.resize(arcs);
  // Fill through first_[tail] as the cursor, which leaves first_ shifted
  // one node to the left; shift it back afterwards.
  for (std::size_t a = 0; a < arcs; ++a) {
    const auto slot = static_cast<std::size_t>(
        first_[static_cast<std::size_t>(to_[a ^ 1])]++);
    arc_[slot] = static_cast<EdgeId>(a);
    head_[slot] = to_[a];
  }
  for (std::size_t v = n; v > 0; --v) first_[v] = first_[v - 1];
  first_[0] = 0;
  queue_.resize(n + 1);  // + the entry a branch-free BFS writes past the end
  csr_stale_ = false;
}

bool FlowNetwork::bfs_levels(NodeId source, NodeId sink, double eps) {
  std::fill(level_.begin(), level_.end(), -1);
  level_[static_cast<std::size_t>(source)] = 0;
  const int* const sink_label = &level_[static_cast<std::size_t>(sink)];
  queue_[0] = source;
  std::size_t head = 0, tail = 1;
  while (head < tail) {
    const auto v = static_cast<std::size_t>(queue_[head++]);
    const int next = level_[v] + 1;
    const auto end = static_cast<std::size_t>(first_[v + 1]);
    for (auto k = static_cast<std::size_t>(first_[v]); k < end; ++k) {
      // Branch-free frontier step (see the header's Layout note): both
      // tests are evaluated, the label is a select, and the head is
      // written to the queue's next free entry whether or not it counts.
      const NodeId u = head_[k];
      int& label = level_[static_cast<std::size_t>(u)];
      const bool take =
          (label < 0) & (residual_[static_cast<std::size_t>(arc_[k])] > eps);
      label = take ? next : label;
      queue_[tail] = u;
      tail += take;
      // Blocking flow never uses a node at or beyond the sink's level,
      // so the rest of the graph need not be labeled. Testing the sink's
      // label (not `take`) keeps the compiler from folding the select
      // back into a branch on `take`.
      if (*sink_label >= 0) return true;
    }
  }
  return false;
}

double FlowNetwork::dfs_blocking(NodeId v, NodeId sink, double pushed,
                                 double eps) {
  if (v == sink) return pushed;
  const int next = level_[static_cast<std::size_t>(v)] + 1;
  int& it = iter_[static_cast<std::size_t>(v)];
  const int end = first_[static_cast<std::size_t>(v) + 1];
  for (; it < end; ++it) {
    const auto e = static_cast<std::size_t>(arc_[static_cast<std::size_t>(it)]);
    const NodeId u = head_[static_cast<std::size_t>(it)];
    if (residual_[e] > eps && level_[static_cast<std::size_t>(u)] == next) {
      double d = dfs_blocking(u, sink, std::min(pushed, residual_[e]), eps);
      if (d > eps) {
        residual_[e] -= d;
        residual_[e ^ 1] += d;
        return d;
      }
    }
  }
  return 0.0;
}

double FlowNetwork::max_flow(NodeId source, NodeId sink, double eps) {
  AMF_REQUIRE(source >= 0 && source < node_count(), "max_flow: bad source");
  AMF_REQUIRE(sink >= 0 && sink < node_count(), "max_flow: bad sink");
  AMF_REQUIRE(source != sink, "max_flow: source == sink");
  ensure_csr();
  level_.resize(static_cast<std::size_t>(nodes_));
  iter_.resize(static_cast<std::size_t>(nodes_));
  cut_valid_ = false;
  double total = 0.0;
  long long phases = 0;
  long long paths = 0;
  // The ambient deadline bounds even one oversized max flow: polled
  // between blocking-flow phases (path augmentations are atomic), an
  // interrupted call returns a valid conservative flow that callers
  // observe as unsaturated. No deadline installed = no clock reads.
  const util::Deadline deadline = util::ambient_deadline();
  while (!deadline.expired()) {
    if (!bfs_levels(source, sink, eps)) {
      // The failed BFS labeled every node residual-reachable from source.
      cut_valid_ = true;
      cut_source_ = source;
      cut_eps_ = eps;
      break;
    }
    ++phases;
    std::copy(first_.begin(), first_.end() - 1, iter_.begin());
    for (;;) {
      double pushed = dfs_blocking(
          source, sink, std::numeric_limits<double>::infinity(), eps);
      if (pushed <= eps) break;
      total += pushed;
      ++paths;
    }
  }
  MaxFlowCounters& counters = mf_counters();
  counters.calls.add(1);
  counters.phases.add(phases);
  counters.paths.add(paths);
  return total;
}

std::vector<char> FlowNetwork::residual_bfs(std::span<const NodeId> seeds,
                                            double eps,
                                            EdgeId pair_bit) const {
  ensure_csr();
  std::vector<char> seen(static_cast<std::size_t>(nodes_), 0);
  std::size_t head = 0, tail = 0;
  for (const NodeId seed : seeds) {
    char& mark = seen[static_cast<std::size_t>(seed)];
    if (mark != 0) continue;  // each node is queued once
    mark = 1;
    queue_[tail++] = seed;
  }
  while (head < tail) {
    const auto v = static_cast<std::size_t>(queue_[head++]);
    const auto end = static_cast<std::size_t>(first_[v + 1]);
    for (auto k = static_cast<std::size_t>(first_[v]); k < end; ++k) {
      // The branch-free step of bfs_levels, without a sink to stop at.
      const NodeId u = head_[k];
      char& mark = seen[static_cast<std::size_t>(u)];
      const bool take =
          (mark == 0) &
          (residual_[static_cast<std::size_t>(arc_[k] ^ pair_bit)] > eps);
      mark = static_cast<char>(mark | take);
      queue_[tail] = u;
      tail += take;
    }
  }
  return seen;
}

std::vector<char> FlowNetwork::residual_reachable_from(NodeId from,
                                                       double eps) const {
  AMF_REQUIRE(from >= 0 && from < node_count(), "bad node");
  if (cut_valid_ && from == cut_source_ && eps == cut_eps_) {
    std::vector<char> seen(static_cast<std::size_t>(nodes_), 0);
    for (std::size_t v = 0; v < seen.size(); ++v) seen[v] = level_[v] >= 0;
    return seen;
  }
  return residual_bfs({&from, 1}, eps, 0);
}

std::vector<char> FlowNetwork::residual_reachable_from(
    std::span<const NodeId> seeds, double eps) const {
  for (const NodeId seed : seeds)
    AMF_REQUIRE(seed >= 0 && seed < node_count(), "bad node");
  return residual_bfs(seeds, eps, 0);
}

std::vector<char> FlowNetwork::residual_can_reach(NodeId to,
                                                  double eps) const {
  AMF_REQUIRE(to >= 0 && to < node_count(), "bad node");
  // Reverse BFS: node v can reach `to` iff some residual arc v->u exists
  // with u already known to reach `to`. Each slot of u holds an arc u->v;
  // its pair (arc ^ 1) runs v->u, so that pair's residual decides.
  return residual_bfs({&to, 1}, eps, 1);
}

double FlowNetwork::outflow(NodeId node) const {
  AMF_REQUIRE(node >= 0 && node < node_count(), "bad node");
  ensure_csr();
  const auto v = static_cast<std::size_t>(node);
  double sum = 0.0;
  for (auto k = static_cast<std::size_t>(first_[v]);
       k < static_cast<std::size_t>(first_[v + 1]); ++k) {
    if ((arc_[k] % 2) == 0) sum += flow(arc_[k]);
  }
  return sum;
}

}  // namespace amf::flow
