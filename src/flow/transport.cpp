#include "flow/transport.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace amf::flow {

namespace {

// Transport-layer counters. The value updates only count when they
// actually change an arc (a no-op set is free and should read as such in
// the metrics). Rows built by the one-pass constructor are not counted as
// added.
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
                             "job rows appended by TransportNetwork::add_job");
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

DemandRows DemandRows::from_dense(const Matrix& demands, int sites) {
  AMF_REQUIRE(sites >= 0, "negative site count");
  DemandRows rows;
  rows.width = sites;
  for (const auto& row : demands) {
    AMF_REQUIRE(row.size() == static_cast<std::size_t>(sites),
                "demand row width != number of sites");
    for (double d : row)
      AMF_REQUIRE(d >= 0.0 && std::isfinite(d),
                  "demands must be finite, >= 0");
    rows.append_row(row);
  }
  return rows;
}

std::size_t DemandRows::find(int row, int site) const {
  const auto r = static_cast<std::size_t>(row);
  const auto it = std::lower_bound(
      entries.begin() + first[r], entries.begin() + first[r + 1], site,
      [](const SiteDemand& e, int s) { return e.site < s; });
  return static_cast<std::size_t>(it - entries.begin());
}

std::ptrdiff_t DemandRows::index_of(int row, int site) const {
  const std::size_t k = find(row, site);
  const auto end =
      static_cast<std::size_t>(first[static_cast<std::size_t>(row) + 1]);
  return k < end && entries[k].site == site ? static_cast<std::ptrdiff_t>(k)
                                            : -1;
}

double DemandRows::at(int row, int site) const {
  const std::ptrdiff_t k = index_of(row, site);
  return k < 0 ? 0.0 : entries[static_cast<std::size_t>(k)].value;
}

std::vector<double> DemandRows::operator[](std::size_t row) const {
  std::vector<double> dense(static_cast<std::size_t>(width), 0.0);
  for (const auto& [s, d] : this->row(static_cast<int>(row)))
    dense[static_cast<std::size_t>(s)] = d;
  return dense;
}

void DemandRows::append_row(const std::vector<double>& dense) {
  for (std::size_t s = 0; s < dense.size(); ++s)
    if (dense[s] > 0.0) entries.push_back({static_cast<int>(s), dense[s]});
  first.push_back(static_cast<int>(entries.size()));
}

void DemandRows::erase_row(int row) {
  const auto r = static_cast<std::size_t>(row);
  const int count = first[r + 1] - first[r];
  entries.erase(entries.begin() + first[r], entries.begin() + first[r + 1]);
  first.erase(first.begin() + static_cast<std::ptrdiff_t>(r) + 1);
  for (std::size_t k = r + 1; k < first.size(); ++k) first[k] -= count;
}

void DemandRows::set(int row, int site, double value) {
  const auto r = static_cast<std::size_t>(row);
  const std::size_t at = find(row, site);
  const auto k = static_cast<std::ptrdiff_t>(at);
  int shift = 0;
  if (k < first[r + 1] && entries[at].site == site) {
    if (value > 0.0) {
      entries[at].value = value;
      return;
    }
    entries.erase(entries.begin() + k);
    shift = -1;
  } else {
    if (!(value > 0.0)) return;
    entries.insert(entries.begin() + k, {site, value});
    shift = 1;
  }
  for (std::size_t i = r + 1; i < first.size(); ++i) first[i] += shift;
}

double ShareRows::at(int row, int site) const {
  const auto r = static_cast<std::size_t>(row);
  const auto lo = sites.begin() + first[r];
  const auto hi = sites.begin() + first[r + 1];
  const auto it = std::lower_bound(lo, hi, site);
  return it != hi && *it == site
             ? values[static_cast<std::size_t>(it - sites.begin())]
             : 0.0;
}

std::vector<double> ShareRows::dense_row(int row) const {
  std::vector<double> dense(static_cast<std::size_t>(width), 0.0);
  const auto r = static_cast<std::size_t>(row);
  for (int k = first[r]; k < first[r + 1]; ++k)
    dense[static_cast<std::size_t>(sites[static_cast<std::size_t>(k)])] =
        values[static_cast<std::size_t>(k)];
  return dense;
}

ShareRows ShareRows::zeros_on(const DemandRows& support) {
  ShareRows rows;
  rows.width = support.width;
  rows.first = support.first;
  rows.sites.reserve(support.entries.size());
  for (const SiteDemand& e : support.entries) rows.sites.push_back(e.site);
  rows.values.assign(support.entries.size(), 0.0);
  return rows;
}

TransportNetwork::TransportNetwork(const std::vector<double>& site_capacities)
    : net_(2 + static_cast<int>(site_capacities.size())) {
  AMF_REQUIRE(!site_capacities.empty(), "at least one site required");
  site_arcs_.reserve(site_capacities.size());
  for (std::size_t s = 0; s < site_capacities.size(); ++s) {
    const double c = site_capacities[s];
    AMF_REQUIRE(c >= 0.0, "negative site capacity");
    site_arcs_.push_back(
        net_.add_edge(site_node(static_cast<int>(s)), kSink, c));
  }
}

TransportNetwork::TransportNetwork(const DemandRows& demands,
                                   const std::vector<double>& capacities)
    : TransportNetwork(capacities) {
  warm_probes_ = false;
  const int sites = this->sites();
  const int jobs = demands.rows();
  AMF_REQUIRE(jobs >= 0 && demands.first.front() == 0 &&
                  std::is_sorted(demands.first.begin(), demands.first.end()) &&
                  static_cast<std::size_t>(demands.first.back()) ==
                      demands.entries.size(),
              "demand row offsets do not index the entries");
  for (double c : capacities) scale_ = std::max(scale_, c);
  // Every arc is known up front: one source arc per row and one demand arc
  // per entry, and the rows' arc index has the entries' offsets.
  net_.reserve_edges(jobs + static_cast<int>(demands.entries.size()));
  row_first_ = demands.first;
  row_arcs_.reserve(demands.entries.size());

  // One pass over the rows builds their source and demand arcs and derives
  // what refresh_derived() would: the scale and the solo ceilings.
  rows_.resize(static_cast<std::size_t>(jobs));
  solo_ceiling_.resize(static_cast<std::size_t>(jobs), 0.0);
  for (int j = 0; j < jobs; ++j) {
    Row& r = rows_[static_cast<std::size_t>(j)];
    r.live = true;
    r.node = net_.add_node();
    r.source_arc = net_.add_edge(kSource, r.node, 0.0);
    double solo = 0.0;
    int prev = -1;
    for (const auto& [s, d] : demands.row(j)) {
      AMF_REQUIRE(s > prev && s < sites,
                  "demand row sites must be strictly ascending, in range");
      AMF_REQUIRE(d > 0.0 && std::isfinite(d),
                  "demand row values must be finite, > 0");
      prev = s;
      row_arcs_.emplace_back(s, net_.add_edge(r.node, site_node(s), d));
      scale_ = std::max(scale_, d);
      solo += std::min(d, capacities[static_cast<std::size_t>(s)]);
    }
    solo_ceiling_[static_cast<std::size_t>(j)] = solo;
  }
  derived_dirty_ = false;
  active_.resize(static_cast<std::size_t>(jobs));
  std::iota(active_.begin(), active_.end(), 0);
  live_rows_ = jobs;
}

EdgeId TransportNetwork::arc_to(int row, int site) const {
  const auto arcs = arcs_of(row);
  const auto it = std::lower_bound(
      arcs.begin(), arcs.end(), site,
      [](const RowArc& a, int s) { return a.first < s; });
  return it != arcs.end() && it->first == site ? it->second : -1;
}

void TransportNetwork::invalidate_caches() {
  memo_valid_ = false;
  derived_dirty_ = true;
}

void TransportNetwork::refresh_derived() const {
  if (!derived_dirty_) return;
  // Capacities first, then demands, as the one-pass build reads them. The
  // solo ceilings sum positive demands in ascending site order, exactly
  // as a dense row scan would.
  double scale = 1.0;
  for (EdgeId e : site_arcs_) scale = std::max(scale, net_.capacity(e));
  solo_ceiling_.resize(active_.size());
  for (std::size_t j = 0; j < active_.size(); ++j) {
    double solo = 0.0;
    for (const auto& [s, e] : arcs_of(active_[j])) {
      const double d = net_.capacity(e);
      scale = std::max(scale, d);
      if (d > 0.0)
        solo += std::min(
            d, net_.capacity(site_arcs_[static_cast<std::size_t>(s)]));
    }
    solo_ceiling_[j] = solo;
  }
  scale_ = scale;
  derived_dirty_ = false;
}

void TransportNetwork::cancel_path(const Row& row, int site, EdgeId arc,
                                   double amount) {
  net_.cancel_flow(arc, amount);
  net_.cancel_flow(site_arcs_[static_cast<std::size_t>(site)], amount);
  net_.cancel_flow(row.source_arc, amount);
}

void TransportNetwork::drain_row(int row) {
  const Row& r = rows_[static_cast<std::size_t>(row)];
  for (const auto& [s, e] : arcs_of(row)) {
    const double f = net_.flow(e);
    if (f > 0.0) cancel_path(r, s, e, f);
  }
}

int TransportNetwork::add_job(const std::vector<int>& sites,
                              const std::vector<double>& demands) {
  AMF_REQUIRE(sites.size() == demands.size(),
              "add_job: sites/demands length mismatch");
  Row row;
  row.live = true;
  row.node = net_.add_node();
  row.source_arc = net_.add_edge(kSource, row.node, 0.0);
  int prev = -1;
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const int s = sites[k];
    AMF_REQUIRE(s >= 0 && s < this->sites(), "add_job: site out of range");
    AMF_REQUIRE(s > prev, "add_job: sites must be strictly ascending");
    AMF_REQUIRE(demands[k] >= 0.0, "add_job: negative demand");
    prev = s;
    row_arcs_.emplace_back(
        s, net_.add_edge(row.node, site_node(s), demands[k]));
  }
  row_first_.push_back(static_cast<int>(row_arcs_.size()));
  rows_.push_back(row);
  ++live_rows_;
  transport_counters().rows_added.add(1);
  invalidate_caches();
  // New arcs carry no flow, so an existing conservative flow stays valid.
  return total_rows() - 1;
}

void TransportNetwork::remove_job(int row) {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "remove_job: bad row id");
  Row& r = rows_[static_cast<std::size_t>(row)];
  AMF_REQUIRE(r.live, "remove_job: row already removed");
  r.live = false;
  if (flow_valid_) drain_row(row);
  net_.rebase_capacity(r.source_arc, 0.0);
  for (const auto& [s, e] : arcs_of(row)) {
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

bool TransportNetwork::set_demand(int row, int site, double value) {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "set_demand: bad row id");
  AMF_REQUIRE(site >= 0 && site < sites(), "set_demand: bad site");
  AMF_REQUIRE(value >= 0.0, "set_demand: negative demand");
  const Row& r = rows_[static_cast<std::size_t>(row)];
  AMF_REQUIRE(r.live, "set_demand: row removed");
  const EdgeId e = arc_to(row, site);
  // No arc was reserved for this site: representable only if the new
  // demand is zero (which it already is, implicitly).
  if (e < 0) return value == 0.0;
  if (net_.capacity(e) != value) {
    if (flow_valid_) {
      // Shed any flow above the new cap along this arc's own path so the
      // held flow stays conservative and capacity-respecting.
      const double excess = net_.flow(e) - value;
      if (excess > 0.0) cancel_path(r, site, e, excess);
    }
    net_.rebase_capacity(e, value);
    transport_counters().demand_updates.add(1);
    invalidate_caches();
  }
  return true;
}

bool TransportNetwork::has_demand_arc(int row, int site) const {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "has_demand_arc: bad row id");
  return arc_to(row, site) >= 0;
}

double TransportNetwork::demand(int row, int site) const {
  AMF_REQUIRE(row >= 0 && row < total_rows(), "demand: bad row id");
  const EdgeId e = arc_to(row, site);
  return e >= 0 ? net_.capacity(e) : 0.0;
}

void TransportNetwork::set_site_capacity(int site, double value) {
  AMF_REQUIRE(site >= 0 && site < sites(), "set_site_capacity: bad site");
  AMF_REQUIRE(value >= 0.0, "set_site_capacity: negative capacity");
  const EdgeId e = site_arcs_[static_cast<std::size_t>(site)];
  if (net_.capacity(e) != value) {
    if (flow_valid_) {
      // Shed throughput above the new cap from the site's incoming demand
      // arcs, walking the live rows in id order (deterministic).
      double excess = net_.flow(e) - value;
      for (int row = 0; row < total_rows() && excess > 0.0; ++row) {
        const Row& r = rows_[static_cast<std::size_t>(row)];
        if (!r.live) continue;
        const EdgeId in = arc_to(row, site);
        if (in < 0) continue;
        const double d = std::min(net_.flow(in), excess);
        if (d <= 0.0) continue;
        cancel_path(r, site, in, d);
        excess -= d;
      }
    }
    net_.rebase_capacity(e, value);
    transport_counters().capacity_updates.add(1);
    invalidate_caches();
  }
}

void TransportNetwork::set_active(const std::vector<int>& rows) {
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
      if (flow_valid_) drain_row(row);
      net_.rebase_capacity(rows_[static_cast<std::size_t>(row)].source_arc,
                           0.0);
    }
  }
  active_ = rows;
  invalidate_caches();
}

void TransportNetwork::compact() {
  AMF_SPAN_ARG("flow/compact", "live_rows", live_rows_);
  transport_counters().compactions.add(1);
  // Dead rows were drained when removed, so a held conservative flow lives
  // entirely on surviving arcs and can be transplanted onto the rebuilt
  // network arc by arc, keeping warm probes possible across compactions.
  const bool keep_flow = flow_valid_;
  // Warm cancellations can leave ulp-negative dust on an arc's flow;
  // clamp at the transplant (a conservative flow stays conservative up to
  // the same dust, far below every eps threshold).
  FlowNetwork fresh(site_node(sites()));
  auto copy_arc = [&](NodeId from, NodeId to, EdgeId e) {
    const EdgeId copy = fresh.add_edge(from, to, net_.capacity(e));
    if (keep_flow) fresh.set_flow(copy, std::max(0.0, net_.flow(e)));
    return copy;
  };
  for (int s = 0; s < sites(); ++s) {
    EdgeId& e = site_arcs_[static_cast<std::size_t>(s)];
    e = copy_arc(site_node(s), kSink, e);
  }
  std::vector<int> row_first{0};
  std::vector<RowArc> row_arcs;
  row_first.reserve(rows_.size() + 1);
  for (int row = 0; row < total_rows(); ++row) {
    Row& r = rows_[static_cast<std::size_t>(row)];
    if (r.live) {
      r.node = fresh.add_node();
      r.source_arc = copy_arc(kSource, r.node, r.source_arc);
      for (const auto& [s, e] : arcs_of(row))
        row_arcs.emplace_back(s, copy_arc(r.node, site_node(s), e));
    } else {
      r.node = -1;
      r.source_arc = -1;
    }
    row_first.push_back(static_cast<int>(row_arcs.size()));
  }
  net_ = std::move(fresh);
  row_first_ = std::move(row_first);
  row_arcs_ = std::move(row_arcs);
  flow_valid_ = keep_flow;
  masked_rows_ = 0;
  invalidate_caches();
}

double TransportNetwork::scale() const {
  refresh_derived();
  return scale_;
}

double TransportNetwork::solve(const std::vector<double>& source_caps,
                               double eps) {
  AMF_REQUIRE(static_cast<int>(source_caps.size()) == jobs(),
              "source cap vector length != number of active jobs");
  if (memo_valid_ && canonical_ && eps == last_eps_ &&
      source_caps == last_caps_) {
    transport_counters().memo_hits.add(1);
    return last_flow_;  // the network holds this very max flow
  }
  last_total_ = 0.0;
  for (int j = 0; j < jobs(); ++j) {
    const double cap = source_caps[static_cast<std::size_t>(j)];
    AMF_REQUIRE(cap >= 0.0, "negative source cap");
    net_.set_capacity(active_row(j).source_arc, cap);
    last_total_ += cap;
  }
  net_.reset_flow();
  last_flow_ = net_.max_flow(kSource, kSink, eps * scale());
  last_caps_ = source_caps;
  last_eps_ = eps;
  memo_valid_ = net_.holds_max_flow();
  canonical_ = true;
  flow_valid_ = true;
  return last_flow_;
}

double TransportNetwork::probe(const std::vector<double>& source_caps,
                               double eps) {
  if (!warm_probes_) return solve(source_caps, eps);
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
  for (int j = 0; j < jobs(); ++j) {
    const Row& r = active_row(j);
    const double cap = source_caps[static_cast<std::size_t>(j)];
    AMF_REQUIRE(cap >= 0.0, "negative source cap");
    double excess = net_.flow(r.source_arc) - cap;
    if (excess > 0.0) {
      // Shrink the job's inflow to fit the new cap: cancel along its own
      // site arcs (ascending site order — deterministic) and the matching
      // site→sink arcs, keeping conservation everywhere.
      for (const auto& [s, e] :
           arcs_of(active_[static_cast<std::size_t>(j)])) {
        if (excess <= 0.0) break;
        const double d = std::min(net_.flow(e), excess);
        if (d <= 0.0) continue;
        cancel_path(r, s, e, d);
        excess -= d;
      }
    }
    net_.rebase_capacity(r.source_arc, cap);
  }
  net_.max_flow(kSource, kSink, flow_eps);
  last_total_ = 0.0;
  last_flow_ = 0.0;
  for (int j = 0; j < jobs(); ++j) {
    last_total_ += source_caps[static_cast<std::size_t>(j)];
    last_flow_ += net_.flow(active_row(j).source_arc);
  }
  last_caps_ = source_caps;
  last_eps_ = eps;
  memo_valid_ = net_.holds_max_flow();
  canonical_ = false;
  return last_flow_;
}

bool TransportNetwork::saturated(double eps) const {
  return last_flow_ >= last_total_ - eps * std::max(scale(), last_total_);
}

ShareRows TransportNetwork::allocation(std::vector<double>* row_totals) const {
  ShareRows a;
  a.width = sites();
  a.first.reserve(active_.size() + 1);
  a.sites.reserve(row_arcs_.size());
  a.values.reserve(row_arcs_.size());
  if (row_totals != nullptr) row_totals->resize(active_.size());
  for (std::size_t j = 0; j < active_.size(); ++j) {
    double total = 0.0;
    for (const auto& [s, e] : arcs_of(active_[j])) {
      if (!(net_.capacity(e) > 0.0)) continue;
      const double share = std::max(0.0, net_.flow(e));
      a.sites.push_back(s);
      a.values.push_back(share);
      total += share;
    }
    a.first.push_back(static_cast<int>(a.values.size()));
    if (row_totals != nullptr) (*row_totals)[j] = total;
  }
  return a;
}

std::vector<char> TransportNetwork::jobs_can_increase(double eps) const {
  auto reach = net_.residual_can_reach(kSink, eps * scale());
  std::vector<char> can(active_.size(), 0);
  for (int j = 0; j < jobs(); ++j)
    can[static_cast<std::size_t>(j)] =
        reach[static_cast<std::size_t>(active_row(j).node)];
  return can;
}

MinCut TransportNetwork::min_cut(double eps) const {
  return cut_from(net_.residual_reachable_from(kSource, eps * scale()));
}

MinCut TransportNetwork::rising_closure_cut(const std::vector<char>& rising,
                                            double eps) const {
  AMF_REQUIRE(static_cast<int>(rising.size()) == jobs(),
              "one rising flag per active job required");
  const double flow_eps = eps * scale();
  const auto reach = net_.residual_can_reach(kSink, flow_eps);
  std::vector<NodeId> seeds;
  for (int j = 0; j < jobs(); ++j) {
    const NodeId node = active_row(j).node;
    if (rising[static_cast<std::size_t>(j)] &&
        !reach[static_cast<std::size_t>(node)])
      seeds.push_back(node);
  }
  return cut_from(net_.residual_reachable_from(seeds, flow_eps));
}

MinCut TransportNetwork::cut_from(const std::vector<char>& reach) const {
  MinCut cut;
  cut.job_in_source_side.resize(active_.size());
  cut.site_in_source_side.resize(site_arcs_.size());
  for (int j = 0; j < jobs(); ++j)
    cut.job_in_source_side[static_cast<std::size_t>(j)] =
        reach[static_cast<std::size_t>(active_row(j).node)];
  for (int s = 0; s < sites(); ++s)
    cut.site_in_source_side[static_cast<std::size_t>(s)] =
        reach[static_cast<std::size_t>(site_node(s))];
  return cut;
}

double TransportNetwork::solo_ceiling(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "bad job index");
  refresh_derived();
  return solo_ceiling_[static_cast<std::size_t>(job)];
}

double TransportNetwork::site_capacity(int site) const {
  AMF_REQUIRE(site >= 0 && site < sites(), "bad site index");
  return net_.capacity(site_arcs_[static_cast<std::size_t>(site)]);
}

void TransportNetwork::add_row_demand_across(
    int job, const std::vector<char>& site_in_source_side,
    double& accumulator) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "bad job index");
  AMF_REQUIRE(static_cast<int>(site_in_source_side.size()) == sites(),
              "cut width != number of sites");
  // Masked (zero) demands are skipped: each would add exactly 0.0, as
  // would the zeros a dense row scan visits.
  for (const auto& [s, e] : arcs_of(active_[static_cast<std::size_t>(job)])) {
    const double d = net_.capacity(e);
    if (d > 0.0 && !site_in_source_side[static_cast<std::size_t>(s)])
      accumulator += d;
  }
}

// ---------------------------------------------------------------------------

std::optional<ShareRows> allocation_for_aggregates(
    const DemandRows& demands, const std::vector<double>& capacities,
    const std::vector<double>& aggregates, double eps) {
  TransportNetwork net(demands, capacities);
  net.solve(aggregates, eps);
  if (!net.saturated(eps)) return std::nullopt;
  return net.allocation();
}

}  // namespace amf::flow
