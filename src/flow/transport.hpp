// transport.hpp — the bipartite job→site transportation network.
//
// Every allocation problem induces the same network shape:
//
//   source --cap f_j--> job_j --cap d[j][s]--> site_s --cap C[s]--> sink
//
// A per-job budget vector f is realizable as aggregates iff the max flow
// saturates every source arc. This header wraps that construction so the
// core allocators never touch raw node ids, and keeps the network alive
// across repeated solves with different source caps (parametric reuse).
//
// Two concrete networks implement the common TransportSystem interface:
//   * TransportNetwork — the one-shot substrate of stateless solves. It is
//     built in one pass over the dense demand rows (arcs only for positive
//     demands, indexed by a flat per-job CSR of (site, arc)) and solved
//     many times, always cold. A last-caps memo serves a repeated solve
//     from the max flow already on the network, so progressive filling's
//     final materialization at the last probe's caps runs no max flow.
//   * IncrementalTransport — persistent topology for online reallocation:
//     jobs are appended as they arrive, masked out when they depart, and
//     demand/capacity values are updated in place between solves, so the
//     network scales with the nonzero structure instead of being rebuilt
//     from nothing at every event.
//
// Both memos are recorded only after a max flow that ran to completion: a
// max flow cut short by a stop token leaves a partial flow that a later
// solve must not return.
#pragma once

#include <optional>
#include <vector>

#include "flow/network.hpp"

namespace amf::flow {

/// Dense job×site matrix helper type used throughout the flow layer.
using Matrix = std::vector<std::vector<double>>;

/// The multi-resource (DRF-on-aggregates) reduction's effective site
/// capacity: the binding minimum of a per-resource capacity row. The
/// transportation network itself stays single-commodity — the reduction
/// happens one layer up (core::AllocationProblem scales each job's rate
/// by its dominant-share coefficient and feeds this binding min as C[s]),
/// so every network here, persistent or one-shot, is untouched by the
/// resource dimension.
inline double binding_min(const std::vector<double>& row) {
  if (row.empty()) return 0.0;
  double c = row.front();
  for (double v : row) c = v < c ? v : c;
  return c;
}

/// Source side of a min cut after a solve, reported separately for jobs
/// and sites.
struct MinCut {
  std::vector<char> job_in_source_side;
  std::vector<char> site_in_source_side;
};

/// The operations progressive filling and the critical-level solver need
/// from a transportation network. Implementations must be deterministic:
/// two systems presenting the same job/site values perform identical
/// floating-point work on every operation (the bit-for-bit contract the
/// incremental simulator relies on).
class TransportSystem {
 public:
  virtual ~TransportSystem() = default;

  virtual int jobs() const = 0;
  virtual int sites() const = 0;

  /// Characteristic scale of the instance (max capacity/demand, >= 1);
  /// tolerances in callers should be relative to this.
  virtual double scale() const = 0;

  /// Solves max flow with the given per-job source caps (resetting any
  /// previous flow) and returns the attained flow value.
  virtual double solve(const std::vector<double>& source_caps,
                       double eps = FlowNetwork::kDefaultEps) = 0;

  /// Feasibility-probe solve: like solve(), but the implementation may
  /// warm-start from the flow left by the previous solve/probe instead of
  /// recomputing from zero. The attained flow *value*, the min cut, and
  /// the residual-reachability queries are flow-state invariants of a max
  /// flow, so every TransportSystem read except allocation() is unaffected
  /// by the shortcut; callers that go on to read allocation() must use
  /// solve(). Default: plain solve().
  virtual double probe(const std::vector<double>& source_caps,
                       double eps = FlowNetwork::kDefaultEps) {
    return solve(source_caps, eps);
  }

  /// True when the last solve saturated every source arc (the caps are
  /// feasible as aggregates).
  virtual bool saturated(double eps = FlowNetwork::kDefaultEps) const = 0;

  /// Allocation matrix realized by the last solve: a[j][s] = flow(job→site).
  virtual Matrix allocation() const = 0;

  /// After a solve: per-job flag, true when the job still has a residual
  /// path to the sink (its aggregate could be increased). The freezing
  /// test of progressive filling.
  virtual std::vector<char> jobs_can_increase(
      double eps = FlowNetwork::kDefaultEps) const = 0;

  /// After a solve: source side of a min cut (residual reachability from
  /// the source).
  virtual MinCut min_cut(double eps = FlowNetwork::kDefaultEps) const = 0;

  /// Maximum aggregate job j could attain if it were alone (Σ_s min(d, C)).
  virtual double solo_ceiling(int job) const = 0;

  /// Current capacity of site `s`.
  virtual double site_capacity(int site) const = 0;

  /// Adds d[job][s] for every site NOT in the cut's source side (the demand
  /// arcs of `job` crossing the cut) into `accumulator`, one addition per
  /// nonzero demand in ascending site order. Accumulating in place keeps the
  /// caller's floating-point summation order identical to a dense row scan
  /// (skipped zeros would add exactly 0.0).
  virtual void add_row_demand_across(int job,
                                     const std::vector<char>& site_in_source_side,
                                     double& accumulator) const = 0;
};

/// Reusable job→site transportation network (fixed job set).
class TransportNetwork final : public TransportSystem {
 public:
  /// `demands[j][s]` is the per-site demand cap (arc capacity job→site;
  /// arcs are only materialized for strictly positive demand);
  /// `capacities[s]` the site capacity. Every row must have one entry per
  /// site, and every demand and capacity must be >= 0 (NaN is rejected).
  TransportNetwork(const Matrix& demands,
                   const std::vector<double>& capacities);

  int jobs() const override { return jobs_; }
  int sites() const override { return sites_; }
  double scale() const override { return scale_; }

  /// Cold solve: resets the flow and runs Dinic from zero. A call with the
  /// caps and eps of the last completed max flow returns its value without
  /// touching the network: every solve here is cold, so the flow it holds
  /// is exactly the one the repeated solve would recompute.
  double solve(const std::vector<double>& source_caps,
               double eps = FlowNetwork::kDefaultEps) override;

  bool saturated(double eps = FlowNetwork::kDefaultEps) const override;
  Matrix allocation() const override;
  std::vector<char> jobs_can_increase(
      double eps = FlowNetwork::kDefaultEps) const override;

  MinCut min_cut(double eps = FlowNetwork::kDefaultEps) const override;

  double solo_ceiling(int job) const override;
  double site_capacity(int site) const override;
  void add_row_demand_across(int job,
                             const std::vector<char>& site_in_source_side,
                             double& accumulator) const override;

 private:
  int jobs_;
  int sites_;
  double scale_ = 1.0;
  FlowNetwork net_;
  NodeId source_;
  NodeId sink_;
  std::vector<EdgeId> source_arcs_;  // per job
  std::vector<EdgeId> site_arcs_;    // per site
  // Demand arcs as a flat CSR: job j's (site, arc) pairs, ascending site,
  // span [row_first_[j], row_first_[j + 1]) of row_arcs_.
  std::vector<int> row_first_;
  std::vector<std::pair<int, EdgeId>> row_arcs_;
  std::vector<double> solo_ceiling_;
  double last_total_ = 0.0;
  double last_flow_ = 0.0;
  // Last-caps memo: the caps and eps of the max flow the network holds,
  // valid only when that max flow ran to completion.
  std::vector<double> last_caps_;
  double last_eps_ = -1.0;
  bool memo_valid_ = false;
};

/// Persistent-topology transportation network for online reallocation.
///
/// Jobs are added once (arcs materialized for their positive-demand
/// sites), masked to zero on departure, and demand / site-capacity values
/// are updated in place between solves. Solves run over a declared
/// *active subset* of rows (ascending ids); everything a solve reads or
/// returns is indexed by position in that subset.
///
/// Bit-for-bit contract: for any active subset, every TransportSystem
/// operation performs exactly the same floating-point work as a freshly
/// built TransportNetwork over the subset's current values — masked
/// (zero-capacity) arcs and inactive rows are invisible to the flow
/// algorithms, and the recomputed scale() matches the fresh build. The
/// incremental simulator's equivalence with the from-scratch engine rests
/// on this property (tested in incremental_test.cpp).
class IncrementalTransport final : public TransportSystem {
 public:
  explicit IncrementalTransport(std::vector<double> site_capacities);

  // --- topology and values ------------------------------------------------

  /// Appends a job with arcs to `sites` (ascending, in range) carrying
  /// `demands` (>= 0; a zero reserves the arc for later unmasking).
  /// Returns the job's stable row id.
  int add_job(const std::vector<int>& sites,
              const std::vector<double>& demands);

  /// Masks the row out: zeroes its source and demand arcs. The id stays
  /// valid but must not appear in later active sets.
  void remove_job(int row);

  /// Updates d[row][site]. The arc must have been reserved by add_job
  /// unless `value` is zero (then this is a no-op). Returns false when a
  /// positive value targets a missing arc (caller must rebuild).
  bool set_demand(int row, int site, double value);

  bool has_demand_arc(int row, int site) const;
  double demand(int row, int site) const;

  void set_site_capacity(int site, double value);

  /// Declares the rows served by subsequent solves (strictly ascending
  /// live ids). Rows leaving the active set get their source caps zeroed.
  void set_active(const std::vector<int>& rows);

  int total_rows() const { return static_cast<int>(rows_.size()); }
  int live_rows() const { return live_rows_; }
  /// Rows removed since the last compact(): dead rows whose (masked)
  /// nodes and arcs the flow network still holds.
  int masked_rows() const { return masked_rows_; }

  /// Rebuilds the underlying flow network from the live rows, dropping
  /// dead rows' nodes and arcs. Stable ids and all values are preserved;
  /// solves before and after are bit-identical.
  void compact();

  // --- TransportSystem over the active subset -----------------------------

  int jobs() const override { return static_cast<int>(active_.size()); }
  int sites() const override { return static_cast<int>(site_arcs_.size()); }
  double scale() const override;
  double solve(const std::vector<double>& source_caps,
               double eps = FlowNetwork::kDefaultEps) override;

  /// Warm feasibility probe. When the network holds a max flow for the
  /// current demand/capacity values (no mutation since the last solve),
  /// only the source arcs are retargeted — excess flow on shrunk arcs is
  /// cancelled along the job's own site arcs, raised arcs gain residual in
  /// place — and Dinic augments from the surviving flow. Falls back to a
  /// cold solve() after any topology or value mutation. The flow split
  /// left behind may differ from a cold solve's, so allocation() readers
  /// must re-solve(); all other reads are flow-state invariant.
  double probe(const std::vector<double>& source_caps,
               double eps = FlowNetwork::kDefaultEps) override;

  bool saturated(double eps = FlowNetwork::kDefaultEps) const override;
  Matrix allocation() const override;
  std::vector<char> jobs_can_increase(
      double eps = FlowNetwork::kDefaultEps) const override;
  MinCut min_cut(double eps = FlowNetwork::kDefaultEps) const override;
  double solo_ceiling(int active_job) const override;
  double site_capacity(int site) const override;
  void add_row_demand_across(int active_job,
                             const std::vector<char>& site_in_source_side,
                             double& accumulator) const override;

  /// Realization contract of solve(). Exact (the default) guarantees
  /// allocation() after solve() is bit-identical to a freshly built
  /// network's cold solve, so solve() only serves its memo when the held
  /// flow came from a cold solve. Relaxed accepts *any* max flow attaining
  /// the caps — the memo may then keep a warm-probed flow, which turns the
  /// materializing solve after a probe at the same caps into a no-op. Job
  /// aggregates are unaffected (the flow value and every cut are max-flow
  /// invariants); only the per-site split may differ.
  void set_exact_realization(bool exact) { exact_ = exact; }
  bool exact_realization() const { return exact_; }

 private:
  struct Row {
    bool live = false;
    NodeId node = -1;
    EdgeId source_arc = -1;
    std::vector<std::pair<int, EdgeId>> site_arcs;  // (site, arc), ascending
  };

  void invalidate_caches();

  /// Cancels all flow through `row`'s arcs (site arcs, matching sink arcs,
  /// source arc), restoring a conservative flow without it.
  void drain_row(const Row& row);

  FlowNetwork net_;
  NodeId source_ = -1;
  NodeId sink_ = -1;
  std::vector<NodeId> site_nodes_;
  std::vector<EdgeId> site_arcs_;
  // Incoming demand arcs per site, (row id, arc) in row insertion order:
  // the deterministic cancellation order when a site capacity shrinks
  // below its current throughput.
  std::vector<std::vector<std::pair<int, EdgeId>>> site_incoming_;
  std::vector<Row> rows_;
  std::vector<int> active_;  // live row ids, ascending
  int live_rows_ = 0;
  int masked_rows_ = 0;
  // True while the residuals hold a conservative flow respecting every
  // arc's current capacity: mutators shed excess flow locally (instead of
  // deferring to the next reset) so probes can warm-start across events.
  bool flow_valid_ = false;

  mutable double scale_ = 1.0;
  mutable bool scale_dirty_ = true;
  // Redundant-solve memo: progressive filling's final materialization
  // frequently re-solves the caps of the last in-loop solve; an exact
  // match lets us keep the flow already in the network. `memo_valid_` is
  // set only after a max flow that ran to completion. `canonical_`
  // records whether the held flow came from a cold solve (reset + Dinic
  // from zero): only then may solve() serve a memo hit, since a
  // warm-probed flow can be a different vertex of the optimum face.
  std::vector<double> last_caps_;
  double last_eps_ = -1.0;
  bool memo_valid_ = false;
  bool canonical_ = false;
  bool exact_ = true;
  double last_total_ = 0.0;
  double last_flow_ = 0.0;
};

/// True iff the aggregate vector `aggregates` is feasible for the instance
/// (some allocation matrix attains at least these per-job totals).
bool aggregates_feasible(const Matrix& demands,
                         const std::vector<double>& capacities,
                         const std::vector<double>& aggregates,
                         double eps = FlowNetwork::kDefaultEps);

/// An allocation matrix realizing exactly the given aggregates, if feasible.
std::optional<Matrix> allocation_for_aggregates(
    const Matrix& demands, const std::vector<double>& capacities,
    const std::vector<double>& aggregates,
    double eps = FlowNetwork::kDefaultEps);

}  // namespace amf::flow
