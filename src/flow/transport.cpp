#include "flow/transport.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace amf::flow {

namespace {

// Transport-layer counters. The IncrementalTransport value updates only
// count when they actually change an arc (a no-op set is free and should
// read as such in the metrics). Memo hits count both networks' solves.
struct TransportCounters {
  obs::Counter rows_added;
  obs::Counter rows_masked;
  obs::Counter compactions;
  obs::Counter demand_updates;
  obs::Counter capacity_updates;
  obs::Counter memo_hits;
  obs::Counter probe_warm;
  obs::Counter probe_cold;
  TransportCounters() {
    auto& reg = obs::Registry::global();
    rows_added = reg.counter("amf_flow_inc_rows_added",
                             "job rows appended to IncrementalTransport");
    rows_masked = reg.counter("amf_flow_inc_rows_masked",
                              "job rows masked out on departure");
    compactions = reg.counter("amf_flow_inc_compactions",
                              "dead-row compaction rebuilds");
    demand_updates = reg.counter("amf_flow_inc_demand_updates",
                                 "in-place demand arc changes");
    capacity_updates = reg.counter("amf_flow_inc_capacity_updates",
                                   "in-place site capacity changes");
    memo_hits = reg.counter("amf_flow_memo_hits",
                            "solves/probes served from the last-caps memo");
    probe_warm = reg.counter("amf_flow_probe_warm",
                             "probes warm-started from the held flow");
    probe_cold = reg.counter("amf_flow_probe_cold",
                             "probes that fell back to a cold solve");
  }
};

TransportCounters& transport_counters() {
  static TransportCounters counters;
  return counters;
}

}  // namespace

TransportNetwork::TransportNetwork(const Matrix& demands,
                                   const std::vector<double>& capacities)
    : jobs_(static_cast<int>(demands.size())),
      sites_(static_cast<int>(capacities.size())),
      net_(2 + jobs_ + sites_) {
  AMF_REQUIRE(sites_ > 0, "at least one site required");
  for (double c : capacities) {
    AMF_REQUIRE(c >= 0.0, "negative site capacity");
    scale_ = std::max(scale_, c);
  }

  // Node layout: 0 = source, 1..jobs = job nodes, jobs+1..jobs+sites =
  // site nodes, last = sink. Arc order (site→sink arcs, then per job its
  // source arc followed by its demand arcs in ascending site order) fixes
  // Dinic's traversal, so it must not change.
  source_ = 0;
  sink_ = 1 + jobs_ + sites_;
  const NodeId first_site = 1 + jobs_;
  // The site and source arcs are known up front. The demand arcs are not:
  // counting them first costs a second scan of the dense rows, which
  // measured slower than letting their arrays grow geometrically.
  net_.reserve_edges(sites_ + jobs_);
  site_arcs_.resize(static_cast<std::size_t>(sites_));
  for (int s = 0; s < sites_; ++s)
    site_arcs_[static_cast<std::size_t>(s)] = net_.add_edge(
        first_site + s, sink_, capacities[static_cast<std::size_t>(s)]);

  // One scan of the dense rows validates them and builds the demand arcs
  // with their flat CSR row index.
  source_arcs_.resize(static_cast<std::size_t>(jobs_));
  solo_ceiling_.resize(static_cast<std::size_t>(jobs_), 0.0);
  row_first_.resize(static_cast<std::size_t>(jobs_) + 1, 0);
  for (int j = 0; j < jobs_; ++j) {
    const auto& row = demands[static_cast<std::size_t>(j)];
    AMF_REQUIRE(static_cast<int>(row.size()) == sites_,
                "demand row width != number of sites");
    const NodeId node = 1 + j;
    source_arcs_[static_cast<std::size_t>(j)] =
        net_.add_edge(source_, node, 0.0);
    double solo = 0.0;
    for (int s = 0; s < sites_; ++s) {
      const double d = row[static_cast<std::size_t>(s)];
      AMF_REQUIRE(d >= 0.0, "negative demand");
      if (d > 0.0) {
        row_arcs_.emplace_back(s, net_.add_edge(node, first_site + s, d));
        solo += std::min(d, capacities[static_cast<std::size_t>(s)]);
        scale_ = std::max(scale_, d);
      }
    }
    solo_ceiling_[static_cast<std::size_t>(j)] = solo;
    row_first_[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(row_arcs_.size());
  }
}

double TransportNetwork::solve(const std::vector<double>& source_caps,
                               double eps) {
  AMF_REQUIRE(static_cast<int>(source_caps.size()) == jobs_,
              "source cap vector length != number of jobs");
  if (memo_valid_ && eps == last_eps_ && source_caps == last_caps_) {
    transport_counters().memo_hits.add(1);
    return last_flow_;  // the network holds this very max flow
  }
  last_total_ = 0.0;
  for (int j = 0; j < jobs_; ++j) {
    double cap = source_caps[static_cast<std::size_t>(j)];
    AMF_REQUIRE(cap >= 0.0, "negative source cap");
    net_.set_capacity(source_arcs_[static_cast<std::size_t>(j)], cap);
    last_total_ += cap;
  }
  net_.reset_flow();
  last_flow_ = net_.max_flow(source_, sink_, eps * scale_);
  memo_valid_ = net_.holds_max_flow();
  if (memo_valid_) {
    last_caps_ = source_caps;
    last_eps_ = eps;
  }
  return last_flow_;
}

bool TransportNetwork::saturated(double eps) const {
  return last_flow_ >= last_total_ - eps * std::max(scale_, last_total_);
}

Matrix TransportNetwork::allocation() const {
  Matrix a(static_cast<std::size_t>(jobs_),
           std::vector<double>(static_cast<std::size_t>(sites_), 0.0));
  for (int j = 0; j < jobs_; ++j) {
    auto& row = a[static_cast<std::size_t>(j)];
    for (int k = row_first_[static_cast<std::size_t>(j)];
         k < row_first_[static_cast<std::size_t>(j) + 1]; ++k) {
      const auto& [s, e] = row_arcs_[static_cast<std::size_t>(k)];
      row[static_cast<std::size_t>(s)] = std::max(0.0, net_.flow(e));
    }
  }
  return a;
}

std::vector<char> TransportNetwork::jobs_can_increase(double eps) const {
  auto reach = net_.residual_can_reach(sink_, eps * scale_);
  std::vector<char> can(static_cast<std::size_t>(jobs_), 0);
  for (int j = 0; j < jobs_; ++j)
    can[static_cast<std::size_t>(j)] = reach[static_cast<std::size_t>(1 + j)];
  return can;
}

MinCut TransportNetwork::min_cut(double eps) const {
  auto reach = net_.residual_reachable_from(source_, eps * scale_);
  MinCut cut;
  cut.job_in_source_side.resize(static_cast<std::size_t>(jobs_));
  cut.site_in_source_side.resize(static_cast<std::size_t>(sites_));
  for (int j = 0; j < jobs_; ++j)
    cut.job_in_source_side[static_cast<std::size_t>(j)] =
        reach[static_cast<std::size_t>(1 + j)];
  for (int s = 0; s < sites_; ++s)
    cut.site_in_source_side[static_cast<std::size_t>(s)] =
        reach[static_cast<std::size_t>(1 + jobs_ + s)];
  return cut;
}

double TransportNetwork::solo_ceiling(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs_, "bad job index");
  return solo_ceiling_[static_cast<std::size_t>(job)];
}

double TransportNetwork::site_capacity(int site) const {
  AMF_REQUIRE(site >= 0 && site < sites_, "bad site index");
  return net_.capacity(site_arcs_[static_cast<std::size_t>(site)]);
}

void TransportNetwork::add_row_demand_across(
    int job, const std::vector<char>& site_in_source_side,
    double& accumulator) const {
  AMF_REQUIRE(job >= 0 && job < jobs_, "bad job index");
  AMF_REQUIRE(static_cast<int>(site_in_source_side.size()) == sites_,
              "cut width != number of sites");
  // Bit-compatible with a dense row scan: a skipped zero demand would have
  // added exactly 0.0 to the accumulator.
  for (int k = row_first_[static_cast<std::size_t>(job)];
       k < row_first_[static_cast<std::size_t>(job) + 1]; ++k) {
    const auto& [s, e] = row_arcs_[static_cast<std::size_t>(k)];
    if (!site_in_source_side[static_cast<std::size_t>(s)])
      accumulator += net_.capacity(e);
  }
}

// ---------------------------------------------------------------------------
// IncrementalTransport

IncrementalTransport::IncrementalTransport(
    std::vector<double> site_capacities) {
  AMF_REQUIRE(!site_capacities.empty(), "at least one site required");
  // Node layout: 0 = source, 1 = sink, 2..sites+1 = site nodes; job nodes
  // are appended by add_job. Site→sink arcs come first so that site-node
  // adjacency starts with the sink arc, matching TransportNetwork's build
  // order (the bit-for-bit contract depends on relative arc order at every
  // node, not on node ids).
  source_ = net_.add_node();
  sink_ = net_.add_node();
  site_nodes_.reserve(site_capacities.size());
  site_arcs_.reserve(site_capacities.size());
  for (double c : site_capacities) {
    AMF_REQUIRE(c >= 0.0, "negative site capacity");
    NodeId node = net_.add_node();
    site_nodes_.push_back(node);
    site_arcs_.push_back(net_.add_edge(node, sink_, c));
  }
  site_incoming_.resize(site_capacities.size());
}

void IncrementalTransport::invalidate_caches() {
  memo_valid_ = false;
  scale_dirty_ = true;
}

int IncrementalTransport::add_job(const std::vector<int>& sites,
                                  const std::vector<double>& demands) {
  AMF_REQUIRE(sites.size() == demands.size(),
              "add_job: sites/demands length mismatch");
  Row row;
  row.live = true;
  row.node = net_.add_node();
  row.source_arc = net_.add_edge(source_, row.node, 0.0);
  row.site_arcs.reserve(sites.size());
  int prev = -1;
  for (std::size_t k = 0; k < sites.size(); ++k) {
    int s = sites[k];
    AMF_REQUIRE(s >= 0 && s < this->sites(), "add_job: site out of range");
    AMF_REQUIRE(s > prev, "add_job: sites must be strictly ascending");
    AMF_REQUIRE(demands[k] >= 0.0, "add_job: negative demand");
    prev = s;
    EdgeId e = net_.add_edge(
        row.node, site_nodes_[static_cast<std::size_t>(s)], demands[k]);
    row.site_arcs.emplace_back(s, e);
    site_incoming_[static_cast<std::size_t>(s)].emplace_back(
        static_cast<int>(rows_.size()), e);
  }
  rows_.push_back(std::move(row));
  ++live_rows_;
  transport_counters().rows_added.add(1);
  invalidate_caches();
  // New arcs carry no flow, so an existing conservative flow stays valid.
  return static_cast<int>(rows_.size()) - 1;
}

void IncrementalTransport::drain_row(const Row& row) {
  for (const auto& [s, e] : row.site_arcs) {
    const double f = net_.flow(e);
    if (f <= 0.0) continue;
    net_.cancel_flow(e, f);
    net_.cancel_flow(site_arcs_[static_cast<std::size_t>(s)], f);
    net_.cancel_flow(row.source_arc, f);
  }
}

void IncrementalTransport::remove_job(int row) {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "remove_job: bad row id");
  Row& r = rows_[static_cast<std::size_t>(row)];
  AMF_REQUIRE(r.live, "remove_job: row already removed");
  r.live = false;
  if (flow_valid_) drain_row(r);
  net_.rebase_capacity(r.source_arc, 0.0);
  for (const auto& [s, e] : r.site_arcs) {
    (void)s;
    net_.rebase_capacity(e, 0.0);
  }
  auto it = std::find(active_.begin(), active_.end(), row);
  if (it != active_.end()) active_.erase(it);
  --live_rows_;
  ++masked_rows_;
  transport_counters().rows_masked.add(1);
  invalidate_caches();
}

bool IncrementalTransport::set_demand(int row, int site, double value) {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "set_demand: bad row id");
  AMF_REQUIRE(site >= 0 && site < sites(), "set_demand: bad site");
  AMF_REQUIRE(value >= 0.0, "set_demand: negative demand");
  const Row& r = rows_[static_cast<std::size_t>(row)];
  AMF_REQUIRE(r.live, "set_demand: row removed");
  for (const auto& [s, e] : r.site_arcs) {
    if (s == site) {
      if (net_.capacity(e) != value) {
        if (flow_valid_) {
          // Shed any flow above the new cap along this arc's own path so
          // the held flow stays conservative and capacity-respecting.
          const double excess = net_.flow(e) - value;
          if (excess > 0.0) {
            net_.cancel_flow(e, excess);
            net_.cancel_flow(site_arcs_[static_cast<std::size_t>(s)], excess);
            net_.cancel_flow(r.source_arc, excess);
          }
        }
        net_.rebase_capacity(e, value);
        transport_counters().demand_updates.add(1);
        invalidate_caches();
      }
      return true;
    }
  }
  // No arc was reserved for this site: representable only if the new
  // demand is zero (which it already is, implicitly).
  return value == 0.0;
}

bool IncrementalTransport::has_demand_arc(int row, int site) const {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "has_demand_arc: bad row id");
  const Row& r = rows_[static_cast<std::size_t>(row)];
  for (const auto& [s, e] : r.site_arcs) {
    (void)e;
    if (s == site) return true;
  }
  return false;
}

double IncrementalTransport::demand(int row, int site) const {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "demand: bad row id");
  const Row& r = rows_[static_cast<std::size_t>(row)];
  for (const auto& [s, e] : r.site_arcs)
    if (s == site) return net_.capacity(e);
  return 0.0;
}

void IncrementalTransport::set_site_capacity(int site, double value) {
  AMF_REQUIRE(site >= 0 && site < sites(), "set_site_capacity: bad site");
  AMF_REQUIRE(value >= 0.0, "set_site_capacity: negative capacity");
  EdgeId e = site_arcs_[static_cast<std::size_t>(site)];
  if (net_.capacity(e) != value) {
    if (flow_valid_) {
      // Shed throughput above the new cap, walking the site's incoming
      // demand arcs in row insertion order (deterministic).
      double excess = net_.flow(e) - value;
      for (const auto& [row, in] :
           site_incoming_[static_cast<std::size_t>(site)]) {
        if (excess <= 0.0) break;
        const double d = std::min(net_.flow(in), excess);
        if (d <= 0.0) continue;
        net_.cancel_flow(in, d);
        net_.cancel_flow(e, d);
        net_.cancel_flow(rows_[static_cast<std::size_t>(row)].source_arc, d);
        excess -= d;
      }
    }
    net_.rebase_capacity(e, value);
    transport_counters().capacity_updates.add(1);
    invalidate_caches();
  }
}

void IncrementalTransport::set_active(const std::vector<int>& rows) {
  int prev = -1;
  for (int row : rows) {
    AMF_REQUIRE(row >= 0 && row < total_rows(), "set_active: bad row id");
    AMF_REQUIRE(row > prev, "set_active: rows must be strictly ascending");
    AMF_REQUIRE(rows_[static_cast<std::size_t>(row)].live,
                "set_active: removed row");
    prev = row;
  }
  if (rows == active_) return;
  // Rows leaving the active set must become invisible to the next solve:
  // zero their source caps now (the solve only touches the new set's arcs)
  // and, when a warm flow is held, drain their throughput.
  for (int row : active_) {
    if (!std::binary_search(rows.begin(), rows.end(), row)) {
      const Row& r = rows_[static_cast<std::size_t>(row)];
      if (flow_valid_) drain_row(r);
      net_.rebase_capacity(r.source_arc, 0.0);
    }
  }
  active_ = rows;
  invalidate_caches();
}

void IncrementalTransport::compact() {
  AMF_SPAN_ARG("flow/compact", "live_rows", live_rows_);
  transport_counters().compactions.add(1);
  // Dead rows were drained when removed, so a held conservative flow lives
  // entirely on surviving arcs and can be transplanted onto the rebuilt
  // network arc by arc, keeping warm probes possible across compactions.
  const bool keep_flow = flow_valid_;
  // Warm cancellations can leave ulp-negative dust on an arc's flow;
  // clamp at the transplant (a conservative flow stays conservative up to
  // the same dust, far below every eps threshold).
  auto held_flow = [this](EdgeId e) { return std::max(0.0, net_.flow(e)); };
  FlowNetwork fresh;
  NodeId source = fresh.add_node();
  NodeId sink = fresh.add_node();
  std::vector<NodeId> site_nodes(site_nodes_.size());
  std::vector<EdgeId> site_arcs(site_arcs_.size());
  for (std::size_t s = 0; s < site_arcs_.size(); ++s) {
    site_nodes[s] = fresh.add_node();
    site_arcs[s] =
        fresh.add_edge(site_nodes[s], sink, net_.capacity(site_arcs_[s]));
    if (keep_flow) fresh.set_flow(site_arcs[s], held_flow(site_arcs_[s]));
  }
  std::vector<std::vector<std::pair<int, EdgeId>>> site_incoming(
      site_incoming_.size());
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    Row& r = rows_[row];
    if (!r.live) {
      r.node = -1;
      r.source_arc = -1;
      r.site_arcs.clear();
      continue;
    }
    NodeId node = fresh.add_node();
    EdgeId src = fresh.add_edge(source, node, net_.capacity(r.source_arc));
    if (keep_flow) fresh.set_flow(src, held_flow(r.source_arc));
    for (auto& [s, e] : r.site_arcs) {
      EdgeId fresh_e = fresh.add_edge(
          node, site_nodes[static_cast<std::size_t>(s)], net_.capacity(e));
      if (keep_flow) fresh.set_flow(fresh_e, held_flow(e));
      e = fresh_e;
      site_incoming[static_cast<std::size_t>(s)].emplace_back(
          static_cast<int>(row), e);
    }
    r.node = node;
    r.source_arc = src;
  }
  net_ = std::move(fresh);
  source_ = source;
  sink_ = sink;
  site_nodes_ = std::move(site_nodes);
  site_arcs_ = std::move(site_arcs);
  site_incoming_ = std::move(site_incoming);
  flow_valid_ = keep_flow;
  masked_rows_ = 0;
  invalidate_caches();
}

double IncrementalTransport::scale() const {
  if (!scale_dirty_) return scale_;
  // Matches a fresh TransportNetwork build over the active rows' current
  // values: capacities first, then demands (max is order-independent, but
  // we keep the same traversal anyway).
  double scale = 1.0;
  for (EdgeId e : site_arcs_) scale = std::max(scale, net_.capacity(e));
  for (int row : active_)
    for (const auto& [s, e] : rows_[static_cast<std::size_t>(row)].site_arcs) {
      (void)s;
      scale = std::max(scale, net_.capacity(e));
    }
  scale_ = scale;
  scale_dirty_ = false;
  return scale_;
}

double IncrementalTransport::solve(const std::vector<double>& source_caps,
                                   double eps) {
  AMF_REQUIRE(static_cast<int>(source_caps.size()) == jobs(),
              "source cap vector length != number of active jobs");
  if (memo_valid_ && (canonical_ || !exact_) && eps == last_eps_ &&
      source_caps == last_caps_) {
    transport_counters().memo_hits.add(1);
    return last_flow_;  // network already holds a max flow for these caps
  }
  last_total_ = 0.0;
  for (std::size_t j = 0; j < active_.size(); ++j) {
    double cap = source_caps[j];
    AMF_REQUIRE(cap >= 0.0, "negative source cap");
    net_.set_capacity(rows_[static_cast<std::size_t>(active_[j])].source_arc,
                      cap);
    last_total_ += cap;
  }
  net_.reset_flow();
  last_flow_ = net_.max_flow(source_, sink_, eps * scale());
  last_caps_ = source_caps;
  last_eps_ = eps;
  memo_valid_ = net_.holds_max_flow();
  canonical_ = true;
  flow_valid_ = true;
  return last_flow_;
}

double IncrementalTransport::probe(const std::vector<double>& source_caps,
                                   double eps) {
  AMF_REQUIRE(static_cast<int>(source_caps.size()) == jobs(),
              "source cap vector length != number of active jobs");
  if (memo_valid_ && eps == last_eps_ && source_caps == last_caps_) {
    transport_counters().memo_hits.add(1);
    return last_flow_;
  }
  // Mutators keep the held flow conservative and capacity-respecting
  // (flow_valid_), so even across topology and value changes only the
  // source caps need retargeting before augmenting on top.
  if (!flow_valid_ || eps != last_eps_) {
    transport_counters().probe_cold.add(1);
    return solve(source_caps, eps);
  }
  transport_counters().probe_warm.add(1);
  const double flow_eps = eps * scale();
  for (std::size_t j = 0; j < active_.size(); ++j) {
    const Row& r = rows_[static_cast<std::size_t>(active_[j])];
    const double cap = source_caps[j];
    AMF_REQUIRE(cap >= 0.0, "negative source cap");
    double excess = net_.flow(r.source_arc) - cap;
    if (excess > 0.0) {
      // Shrink the job's inflow to fit the new cap: cancel along its own
      // site arcs (ascending site order — deterministic) and the matching
      // site→sink arcs, keeping conservation everywhere.
      for (const auto& [s, e] : r.site_arcs) {
        if (excess <= 0.0) break;
        const double d = std::min(net_.flow(e), excess);
        if (d <= 0.0) continue;
        net_.cancel_flow(e, d);
        net_.cancel_flow(site_arcs_[static_cast<std::size_t>(s)], d);
        net_.cancel_flow(r.source_arc, d);
        excess -= d;
      }
    }
    net_.rebase_capacity(r.source_arc, cap);
  }
  net_.max_flow(source_, sink_, flow_eps);
  last_total_ = 0.0;
  last_flow_ = 0.0;
  for (std::size_t j = 0; j < active_.size(); ++j) {
    last_total_ += source_caps[j];
    last_flow_ +=
        net_.flow(rows_[static_cast<std::size_t>(active_[j])].source_arc);
  }
  last_caps_ = source_caps;
  last_eps_ = eps;
  memo_valid_ = net_.holds_max_flow();
  canonical_ = false;
  return last_flow_;
}

bool IncrementalTransport::saturated(double eps) const {
  return last_flow_ >= last_total_ - eps * std::max(scale(), last_total_);
}

Matrix IncrementalTransport::allocation() const {
  Matrix a(active_.size(),
           std::vector<double>(static_cast<std::size_t>(sites()), 0.0));
  for (std::size_t j = 0; j < active_.size(); ++j)
    for (const auto& [s, e] :
         rows_[static_cast<std::size_t>(active_[j])].site_arcs)
      a[j][static_cast<std::size_t>(s)] = std::max(0.0, net_.flow(e));
  return a;
}

std::vector<char> IncrementalTransport::jobs_can_increase(double eps) const {
  auto reach = net_.residual_can_reach(sink_, eps * scale());
  std::vector<char> can(active_.size(), 0);
  for (std::size_t j = 0; j < active_.size(); ++j)
    can[j] = reach[static_cast<std::size_t>(
        rows_[static_cast<std::size_t>(active_[j])].node)];
  return can;
}

MinCut IncrementalTransport::min_cut(double eps) const {
  auto reach = net_.residual_reachable_from(source_, eps * scale());
  MinCut cut;
  cut.job_in_source_side.resize(active_.size());
  cut.site_in_source_side.resize(site_nodes_.size());
  for (std::size_t j = 0; j < active_.size(); ++j)
    cut.job_in_source_side[j] = reach[static_cast<std::size_t>(
        rows_[static_cast<std::size_t>(active_[j])].node)];
  for (std::size_t s = 0; s < site_nodes_.size(); ++s)
    cut.site_in_source_side[s] =
        reach[static_cast<std::size_t>(site_nodes_[s])];
  return cut;
}

double IncrementalTransport::solo_ceiling(int active_job) const {
  AMF_REQUIRE(active_job >= 0 && active_job < jobs(), "bad job index");
  // Recomputed from current values (demands and capacities mutate between
  // solves); iterates positive demands in ascending site order, matching a
  // fresh build's accumulation exactly.
  const Row& r = rows_[static_cast<std::size_t>(
      active_[static_cast<std::size_t>(active_job)])];
  double sum = 0.0;
  for (const auto& [s, e] : r.site_arcs) {
    double d = net_.capacity(e);
    if (d > 0.0)
      sum +=
          std::min(d, net_.capacity(site_arcs_[static_cast<std::size_t>(s)]));
  }
  return sum;
}

double IncrementalTransport::site_capacity(int site) const {
  AMF_REQUIRE(site >= 0 && site < sites(), "bad site index");
  return net_.capacity(site_arcs_[static_cast<std::size_t>(site)]);
}

void IncrementalTransport::add_row_demand_across(
    int active_job, const std::vector<char>& site_in_source_side,
    double& accumulator) const {
  AMF_REQUIRE(active_job >= 0 && active_job < jobs(), "bad job index");
  AMF_REQUIRE(static_cast<int>(site_in_source_side.size()) == sites(),
              "cut width != number of sites");
  const Row& r = rows_[static_cast<std::size_t>(
      active_[static_cast<std::size_t>(active_job)])];
  // Masked (zero) demands are skipped: each would add exactly 0.0.
  for (const auto& [s, e] : r.site_arcs) {
    double d = net_.capacity(e);
    if (d > 0.0 && !site_in_source_side[static_cast<std::size_t>(s)])
      accumulator += d;
  }
}

// ---------------------------------------------------------------------------

bool aggregates_feasible(const Matrix& demands,
                         const std::vector<double>& capacities,
                         const std::vector<double>& aggregates, double eps) {
  TransportNetwork net(demands, capacities);
  net.solve(aggregates, eps);
  return net.saturated(eps);
}

std::optional<Matrix> allocation_for_aggregates(
    const Matrix& demands, const std::vector<double>& capacities,
    const std::vector<double>& aggregates, double eps) {
  TransportNetwork net(demands, capacities);
  net.solve(aggregates, eps);
  if (!net.saturated(eps)) return std::nullopt;
  return net.allocation();
}

}  // namespace amf::flow
