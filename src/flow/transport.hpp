// transport.hpp — the bipartite job→site transportation network.
//
// Every allocation problem induces the same network shape:
//
//   source --cap f_j--> job_j --cap d[j][s]--> site_s --cap C[s]--> sink
//
// A per-job budget vector f is realizable as aggregates iff the max flow
// saturates every source arc. TransportNetwork wraps that construction so
// the core allocators never touch raw node ids, and keeps the network
// alive across repeated solves with different source caps.
//
// One class serves stateless solves and warm workspaces. Its rows (jobs)
// carry arcs only to their reserved sites, indexed by one flat CSR of
// (site, arc) per row, and it is built in one of two ways:
//   * TransportNetwork(DemandRows, capacities) builds every row in one
//     pass over a sparse index of the positive demands (the CSR an
//     AllocationProblem keeps), with its arc arrays reserved once. Its
//     probes always run cold, so the flow it holds is always the one a
//     cold solve computes, and progressive filling's final materialization
//     at the last probe's caps is served from the last-caps memo with no
//     max flow.
//   * TransportNetwork(capacities) starts with sites only; add_job appends
//     rows as jobs arrive, remove_job masks them on departure, values are
//     updated in place between solves, and compact() drops dead rows.
//     Mutators keep a held flow conservative, so probes after the first
//     warm-start from it across events.
// The probe policy is fixed by the constructor: cold probes win on fresh
// one-shot instances (the final solve becomes free), warm probes win on a
// stream of related instances (each event perturbs little of the flow).
//
// Memos are recorded only after a max flow that ran to completion: a max
// flow cut short by the deadline leaves a partial flow that a later solve
// must not return.
#pragma once

#include <optional>
#include <ranges>
#include <span>
#include <utility>
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
/// so the network is untouched by the resource dimension.
inline double binding_min(const std::vector<double>& row) {
  if (row.empty()) return 0.0;
  double c = row.front();
  for (double v : row) c = v < c ? v : c;
  return c;
}

/// One positive demand of a job row: the site and its demand cap.
struct SiteDemand {
  int site = 0;
  double value = 0.0;
  bool operator==(const SiteDemand&) const = default;
};

/// The positive demands of a list of job rows as a CSR: row j's entries,
/// in strictly ascending site order, are entries[first[j], first[j + 1]).
/// Zero demands have no entry; `width` is the number of sites a row spans.
/// On the sparse instances of the paper's model (a job's data lives on a
/// few sites) this is a small fraction of a dense n×m matrix, and it is
/// the only form in which problems hold their demands.
struct DemandRows {
  int width = 0;
  std::vector<int> first{0};
  std::vector<SiteDemand> entries;

  int rows() const { return static_cast<int>(first.size()) - 1; }
  /// Row `row`'s entries, ascending site.
  std::span<const SiteDemand> row(int row) const {
    const auto r = static_cast<std::size_t>(row);
    const auto lo = static_cast<std::size_t>(first[r]);
    return {entries.data() + lo, static_cast<std::size_t>(first[r + 1]) - lo};
  }
  /// Indices into `entries` of row `row`'s entries.
  auto indices(int row) const {
    return std::views::iota(
        static_cast<std::size_t>(first[static_cast<std::size_t>(row)]),
        static_cast<std::size_t>(first[static_cast<std::size_t>(row) + 1]));
  }
  /// Index into `entries` of (`row`, `site`)'s entry, or of the position
  /// where it would be inserted.
  std::size_t find(int row, int site) const;
  /// Index into `entries` of (`row`, `site`)'s entry, or -1 without one.
  std::ptrdiff_t index_of(int row, int site) const;
  /// The demand of (`row`, `site`): its entry's value, or 0.0.
  double at(int row, int site) const;
  /// Row `row` as a dense vector of `width` values (the row edge for
  /// callers that speak dense rows, such as wire clients).
  std::vector<double> operator[](std::size_t row) const;

  /// The index of a dense matrix (the test edge), validated: every row
  /// must have `sites` entries, each finite and >= 0.
  static DemandRows from_dense(const Matrix& demands, int sites);

  /// Appends a row holding the positive entries of `dense` (unchecked).
  void append_row(const std::vector<double>& dense);
  void erase_row(int row);
  /// Sets the demand of (`row`, `site`): updates, inserts or (for a zero
  /// `value`) erases its entry.
  void set(int row, int site, double value);

  bool operator==(const DemandRows&) const = default;
};

/// Per-row (site, share) entries as a CSR whose values are contiguous:
/// row j's sites and values are sites/values[first[j], first[j + 1]),
/// sites strictly ascending; `width` is the number of sites. An
/// allocation's shares take this form, on its problem's demand support.
struct ShareRows {
  int width = 0;
  std::vector<int> first{0};
  std::vector<int> sites;
  std::vector<double> values;

  int rows() const { return static_cast<int>(first.size()) - 1; }
  /// Row `row`'s values, ascending site.
  std::span<const double> operator[](std::size_t row) const {
    return {values.data() + first[row],
            static_cast<std::size_t>(first[row + 1] - first[row])};
  }
  /// Row `row`'s sites, aligned with operator[](row).
  std::span<const int> sites_of(std::size_t row) const {
    return {sites.data() + first[row],
            static_cast<std::size_t>(first[row + 1] - first[row])};
  }
  /// The share of (`row`, `site`): its entry's value, or +0.0.
  double at(int row, int site) const;
  /// Row `row` as a dense vector of `width` values (the JSON/CSV edge).
  std::vector<double> dense_row(int row) const;
  /// Zero shares on exactly the entries of `support`.
  static ShareRows zeros_on(const DemandRows& support);

  bool operator==(const ShareRows&) const = default;
};

/// Source side of a min cut after a solve, reported separately for jobs
/// and sites.
struct MinCut {
  std::vector<char> job_in_source_side;
  std::vector<char> site_in_source_side;
};

/// Job→site transportation network over a set of rows with stable ids.
///
/// Solves run over the *active* rows (ascending ids); every solve input and
/// read is indexed by position in that subset. A one-pass build activates
/// all its rows, in row order.
///
/// Determinism: the arc order (site→sink arcs, then per row its source arc
/// followed by its demand arcs in ascending site order) fixes Dinic's
/// traversal. Masked arcs and inactive rows carry zero capacity and are
/// invisible to the flow algorithms, so a network reached by any sequence
/// of add_job / remove_job / value updates / compact() performs exactly the
/// floating-point work of a one-pass build over the active rows' current
/// values. The incremental simulator's equivalence with the from-scratch
/// engine rests on this (tested in flow_test.cpp and incremental_test.cpp).
class TransportNetwork {
 public:
  /// One-pass build with probes that always run cold. Row j of `demands`
  /// lists job j's positive demand caps (arc capacities job→site), sites
  /// strictly ascending and in range, values finite and > 0;
  /// `capacities[s]` is the site capacity (>= 0).
  TransportNetwork(const DemandRows& demands,
                   const std::vector<double>& capacities);

  /// Sites only; rows come from add_job. Probes warm-start from the held
  /// flow once a solve has put one on the network.
  explicit TransportNetwork(const std::vector<double>& site_capacities);

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

  // --- solves and reads over the active rows ------------------------------

  int jobs() const { return static_cast<int>(active_.size()); }
  int sites() const { return static_cast<int>(site_arcs_.size()); }

  /// Characteristic scale of the instance (max capacity/demand, >= 1);
  /// tolerances in callers should be relative to this.
  double scale() const;

  /// Cold solve: resets the flow and runs Dinic from zero; returns the
  /// attained flow value. A call with the caps and eps of the last
  /// completed max flow returns its value without touching the network
  /// when the held flow is the one this solve would recompute (it came
  /// from a cold solve). allocation() after solve() is therefore always
  /// bit-identical to a freshly built network's cold solve.
  double solve(const std::vector<double>& source_caps,
               double eps = FlowNetwork::kDefaultEps);

  /// Feasibility probe. On a dense build it is solve(). Otherwise, when
  /// the network holds a conservative flow, only the source arcs are
  /// retargeted — excess flow on shrunk arcs is cancelled along the job's
  /// own site arcs, raised arcs gain residual in place — and Dinic augments
  /// from the surviving flow. The attained value, the min cut and the
  /// residual reachability are invariants of a max flow, so every read
  /// except allocation() agrees with a cold solve; callers that go on to
  /// read allocation() must use solve().
  double probe(const std::vector<double>& source_caps,
               double eps = FlowNetwork::kDefaultEps);

  /// True when the last solve saturated every source arc (the caps are
  /// feasible as aggregates).
  bool saturated(double eps = FlowNetwork::kDefaultEps) const;

  /// Shares realized by the last solve on every positive-demand arc of the
  /// active rows (a masked or zero arc carries none): the rows' demand
  /// support in ascending site order, zeros kept. With `row_totals`, also
  /// writes each active row's aggregate there in the same pass: the row's
  /// shares added in ascending site order.
  ShareRows allocation(std::vector<double>* row_totals = nullptr) const;

  /// After a solve: per-job flag, true when the job still has a residual
  /// path to the sink (its aggregate could be increased). The freezing
  /// test of progressive filling.
  std::vector<char> jobs_can_increase(
      double eps = FlowNetwork::kDefaultEps) const;

  /// After a solve: source side of a min cut (residual reachability from
  /// the source).
  MinCut min_cut(double eps = FlowNetwork::kDefaultEps) const;

  /// After a solve: the cut whose source side is the source plus the
  /// residual closure of the jobs flagged in `rising` that have no residual
  /// path to the sink, both read at min_cut's eps. When the solve is a max
  /// flow at a critical level and `rising` flags the jobs whose caps grow
  /// with the level, this is the minimal min cut just above that level
  /// (DESIGN §6), with no max flow spent.
  MinCut rising_closure_cut(const std::vector<char>& rising,
                            double eps = FlowNetwork::kDefaultEps) const;

  /// Maximum aggregate job j could attain if it were alone (Σ_s min(d, C)).
  double solo_ceiling(int job) const;

  /// Current capacity of site `s`.
  double site_capacity(int site) const;

  /// Adds d[job][s] for every site NOT in the cut's source side (the demand
  /// arcs of `job` crossing the cut) into `accumulator`, one addition per
  /// nonzero demand in ascending site order. Accumulating in place keeps the
  /// caller's floating-point summation order identical to a dense row scan
  /// (skipped zeros would add exactly 0.0).
  void add_row_demand_across(int job,
                             const std::vector<char>& site_in_source_side,
                             double& accumulator) const;

 private:
  using RowArc = std::pair<int, EdgeId>;  // (site, arc)

  struct Row {
    bool live = false;
    NodeId node = -1;
    EdgeId source_arc = -1;
  };

  // Node layout: source, sink, one node per site, then one per row.
  static constexpr NodeId kSource = 0;
  static constexpr NodeId kSink = 1;
  static NodeId site_node(int site) { return 2 + site; }

  /// Row `row`'s demand arcs, ascending site.
  std::span<const RowArc> arcs_of(int row) const {
    const auto first = static_cast<std::size_t>(
        row_first_[static_cast<std::size_t>(row)]);
    const auto last = static_cast<std::size_t>(
        row_first_[static_cast<std::size_t>(row) + 1]);
    return {row_arcs_.data() + first, last - first};
  }
  /// Row `row`'s demand arc to `site`, or -1 when none was reserved.
  EdgeId arc_to(int row, int site) const;
  const Row& active_row(int job) const {
    return rows_[static_cast<std::size_t>(
        active_[static_cast<std::size_t>(job)])];
  }

  /// The cut whose source side holds the nodes flagged in `reach`.
  MinCut cut_from(const std::vector<char>& reach) const;

  void invalidate_caches();
  /// Recomputes scale_ and solo_ceiling_ after a mutation.
  void refresh_derived() const;

  /// Cancels `amount` of flow along source → `row` → `site` → sink, where
  /// `arc` is the row's demand arc to `site`.
  void cancel_path(const Row& row, int site, EdgeId arc, double amount);
  /// Cancels all flow through `row`'s arcs, restoring a conservative flow
  /// without it.
  void drain_row(int row);

  FlowNetwork net_;
  std::vector<EdgeId> site_arcs_;  // per site
  std::vector<Row> rows_;          // per stable row id
  // Demand arcs as a flat CSR: row r's (site, arc) pairs, ascending site,
  // span [row_first_[r], row_first_[r + 1]) of row_arcs_. Dead rows keep
  // their span until compact() empties it.
  std::vector<int> row_first_{0};
  std::vector<RowArc> row_arcs_;
  std::vector<int> active_;  // live row ids, ascending
  int live_rows_ = 0;
  int masked_rows_ = 0;
  // Fixed by the constructor: one-pass builds probe cold, add_job builds
  // probe warm.
  bool warm_probes_ = true;
  // True while the residuals hold a conservative flow respecting every
  // arc's current capacity: mutators shed excess flow locally (instead of
  // deferring to the next reset) so probes can warm-start across events.
  bool flow_valid_ = false;

  // Derived from the current values, per active row: recomputed lazily
  // after any mutation.
  mutable double scale_ = 1.0;
  mutable std::vector<double> solo_ceiling_;
  mutable bool derived_dirty_ = true;

  // Last-caps memo: progressive filling's final materialization frequently
  // re-solves the caps of the last in-loop probe; an exact match lets us
  // keep the flow already in the network. `memo_valid_` is set only after
  // a max flow that ran to completion. `canonical_` records whether the
  // held flow came from a cold solve (reset + Dinic from zero): only then
  // may solve() serve a memo hit, since a warm-probed flow can be
  // a different vertex of the optimum face.
  std::vector<double> last_caps_;
  double last_eps_ = -1.0;
  bool memo_valid_ = false;
  bool canonical_ = false;
  double last_total_ = 0.0;
  double last_flow_ = 0.0;
};

/// Shares realizing exactly the given aggregates, if they are feasible.
std::optional<ShareRows> allocation_for_aggregates(
    const DemandRows& demands, const std::vector<double>& capacities,
    const std::vector<double>& aggregates,
    double eps = FlowNetwork::kDefaultEps);

}  // namespace amf::flow
