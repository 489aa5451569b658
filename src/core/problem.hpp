// problem.hpp — the distributed allocation problem instance.
//
// n jobs run across m sites. Job j can use at most d[j][s] units of
// resource at site s (its demand cap, derived from data locality) and has
// w[j][s] units of work to process there. Site s offers C[s] units.
// Optional weights express per-job priorities under weighted max-min
// fairness; the unweighted paper model is weights == 1.
//
// ## Multi-resource instances (DRF-on-aggregates)
//
// A site may offer a *vector* of R resources (CPU/mem/net),
// capacity[s][r], and each job consumes them in fixed Leontief
// proportions profile[j][r] per task. Fairness is then defined on the
// weighted aggregate *dominant share*: job j's dominant-share coefficient
// is γ_j = max_r profile[j][r], and the standard DRF reduction maps the
// vector instance onto the scalar transportation model the whole solver
// chain already speaks:
//
//   effective demand   d̃[j][s] = d[j][s] · γ_j      (dominant units)
//   effective capacity C̃[s]    = min_r capacity[s][r] (the binding resource)
//   effective workload w̃[j][s] = w[j][s] · γ_j
//
// Every value-returning accessor (demands(), capacities(), demand(),
// capacity(), workload(), scale(), solo_ceiling(), equal_split_share())
// reports the EFFECTIVE view, so AMF/E-AMF/PSMF, the incremental
// workspace, the robust tiers, and the flow substrate run unchanged and
// their allocations come back in dominant units (task counts are
// share/γ). The raw task-unit inputs remain available via task_demand()/
// task_workload()/profiles()/capacity_matrix().
//
// Storage is CSR rows only: the positive effective demands (demands()),
// with workloads and (multi-resource) raw demands as arrays aligned with
// its entries; effective workloads are computed on read as raw · γ. The
// dense constructors, load() and apply() feed one row at a time.
//
// A problem built through the scalar constructor never materializes the
// vector state: capacity_matrix() is empty, multi_resource() is false,
// and the code paths are byte-for-byte the pre-lift ones (pinned by
// test_r1_equiv). A vector problem with R=1 and unit profiles takes the
// same effective values, so it allocates identically to its scalar twin.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "flow/transport.hpp"

namespace amf::core {

using Matrix = flow::Matrix;

/// One elementary change to a problem between two online solve events.
/// Deltas are the currency of the incremental pipeline: the simulator
/// feeds them to both AllocationProblem::apply (value semantics) and
/// SolverWorkspace::apply (persistent flow-network topology), keeping the
/// two views consistent without rebuilding either.
///
/// Scalar quantities in deltas are raw task units; the problem converts
/// to effective (dominant-share) units internally.
struct ProblemDelta {
  enum class Kind {
    kJobArrived,   ///< append a job row (demands / optional workloads / weight)
    kJobDeparted,  ///< erase a job row, preserving the order of the rest
    kSiteCapacity, ///< set C[site] = value (single-resource problems only)
    kDemandSet,    ///< set d[job][site] = value
    kWorkloadSet,  ///< set w[job][site] = value
    kCapacityVec,  ///< set capacity[site][*] = capacity_row
    kProfileSet,   ///< set profile[job][*] = profile_row (multi-resource only)
  };

  Kind kind = Kind::kDemandSet;
  int job = -1;
  int site = -1;
  double value = 0.0;
  double weight = 1.0;
  std::vector<double> demand_row;    ///< kJobArrived: initial demands
  std::vector<double> workload_row;  ///< kJobArrived: initial workloads (may be empty)
  /// kJobArrived: per-site ceiling on any demand this job may ever report
  /// (>= demand_row). Decides which arcs a persistent network reserves so
  /// later unmasking needs no rebuild. Empty = demand_row itself.
  std::vector<double> demand_ceiling;
  /// kCapacityVec: the site's new per-resource capacity row (width R; a
  /// single-resource problem accepts width 1).
  std::vector<double> capacity_row;
  /// kJobArrived / kProfileSet: the job's Leontief profile (width R).
  /// Empty on arrival = the unit profile.
  std::vector<double> profile_row;

  static ProblemDelta job_arrived(std::vector<double> demands,
                                  std::vector<double> workloads = {},
                                  double weight = 1.0,
                                  std::vector<double> ceiling = {},
                                  std::vector<double> profile = {});
  static ProblemDelta job_departed(int job);
  static ProblemDelta site_capacity(int site, double value);
  static ProblemDelta demand_set(int job, int site, double value);
  static ProblemDelta workload_set(int job, int site, double value);
  static ProblemDelta set_capacity_vec(int site, std::vector<double> row);
  static ProblemDelta set_profile(int job, std::vector<double> row);
};

/// An immutable-after-validation allocation problem instance.
class AllocationProblem {
 public:
  AllocationProblem() = default;

  /// Builds and validates a single-resource instance from dense rows (the
  /// test and JSON edge). `workloads` may be empty (no completion-time
  /// information) or n×m; `weights` may be empty (all 1).
  AllocationProblem(const Matrix& demands, std::vector<double> capacities,
                    const Matrix& workloads = {},
                    std::vector<double> weights = {});

  /// Builds and validates a multi-resource instance. `capacity_matrix` is
  /// m×R (R >= 1 taken from its rows); `profiles` is n×R Leontief rows
  /// (each with at least one positive entry) or empty for unit profiles.
  /// `demands`/`workloads` are raw task units. A factory rather than a
  /// constructor so brace-initialized scalar call sites stay unambiguous.
  static AllocationProblem multi(const Matrix& demands, Matrix capacity_matrix,
                                 const Matrix& profiles,
                                 const Matrix& workloads = {},
                                 std::vector<double> weights = {});

  int jobs() const { return demands_.rows(); }
  int sites() const { return static_cast<int>(capacities_.size()); }

  /// True when this instance carries vector capacities; the effective
  /// accessors below then report the DRF reduction's dominant units.
  bool multi_resource() const { return !capacity_matrix_.empty(); }
  /// Resource dimension R (1 for scalar instances).
  int resources() const {
    return multi_resource() ? static_cast<int>(capacity_matrix_.front().size())
                            : 1;
  }

  /// The positive effective demands, row by row in ascending site order
  /// (flow::DemandRows, width sites()). Network builds and per-row sums
  /// read these entries; `demands()[j]` densifies row j.
  const flow::DemandRows& demands() const { return demands_; }
  /// Effective (binding-resource) site capacities.
  const std::vector<double>& capacities() const { return capacities_; }
  const std::vector<double>& weights() const { return weights_; }
  bool has_workloads() const { return has_work_ && jobs() > 0; }

  /// Per-site per-resource capacities; empty on scalar instances.
  const Matrix& capacity_matrix() const { return capacity_matrix_; }
  /// Per-job Leontief profiles (n×R); empty on scalar instances.
  const Matrix& profiles() const { return profiles_; }

  double demand(int job, int site) const;
  double workload(int job, int site) const;
  /// Effective workload of demands().entries[entry], in row `job`.
  double entry_workload(int job, std::size_t entry) const {
    if (!has_work_) return 0.0;
    return multi_resource()
               ? work_[entry] * gammas_[static_cast<std::size_t>(job)]
               : work_[entry];
  }
  /// Raw task-unit entries (== demand()/workload() on scalar instances).
  double task_demand(int job, int site) const;
  double task_workload(int job, int site) const;
  /// Row `job`'s raw task-unit demands/workloads as dense rows of width
  /// sites() (the CSV and JSON edge); the workload row is all zeros
  /// without workloads.
  std::vector<double> task_demand_row(int job) const;
  std::vector<double> task_workload_row(int job) const;
  double capacity(int site) const;
  double weight(int job) const;
  /// capacity[site][resource]; scalar instances accept resource == 0.
  double capacity(int site, int resource) const;
  /// profile[job][resource]; 1.0 on scalar instances (resource == 0).
  double profile(int job, int resource) const;
  /// Dominant-share coefficient γ_j = max_r profile[j][r] (1.0 scalar).
  double gamma(int job) const;

  /// Σ_s min(d[j][s], C[s]) — the most job j could ever receive.
  double solo_ceiling(int job) const;
  /// Σ_s w[j][s] — total work of job j (0 without workloads).
  double total_work(int job) const;
  double total_capacity() const;
  /// Largest capacity/demand value (>= 1); tolerance scale of the
  /// instance. All flow computations use tolerances relative to this
  /// value, which bounds the usable dynamic range *within* one instance
  /// to roughly eight orders of magnitude — quantities smaller than
  /// eps·scale() of the largest site are treated as numerical noise.
  double scale() const;

  /// The sharing-incentive guarantee of job j: what it would get if every
  /// site were statically partitioned in proportion to the weights,
  /// Σ_s min(d[j][s], C[s]·φ_j/Σφ). This is the floor E-AMF enforces.
  double equal_split_share(int job) const;
  /// equal_split_share(j) of every job, in O(n + nnz): the weights are
  /// summed once. Bit-identical to calling equal_split_share per job.
  std::vector<double> equal_split_shares() const;

  /// A copy of this instance where job `job` reports `reported` as its
  /// demand row (used by strategy-proofness probes). Workloads are
  /// dropped: a misreported zero where true work exists would not validate.
  AllocationProblem with_reported_demands(int job,
                                          const std::vector<double>& reported)
      const;

  /// A copy restricted to the given jobs (order preserved).
  AllocationProblem subset(const std::vector<int>& job_indices) const;

  /// The instance after one delta, validating only what changed (O(m) for
  /// arrivals, O(1) for value changes plus an O(nnz) shift of the demand
  /// index when a demand appears, disappears or its row departs — never a
  /// full O(n·m) revalidation).
  /// The lvalue overload copies; the rvalue overload reuses this
  /// instance's buffers, so a solve loop that owns its problem pays only
  /// for the changed entries: `p = std::move(p).apply(delta)`.
  AllocationProblem apply(const ProblemDelta& delta) const&;
  AllocationProblem apply(const ProblemDelta& delta) &&;

  /// CSV round-trip: header line `jobs,sites,has_work[,resources]` then
  /// one row per job of demands, then capacities (m rows of R when
  /// multi-resource), then profile rows (multi-resource only), then
  /// optional workloads and weights. Scalar instances save exactly the
  /// pre-lift format. load() reads through the hardened CSV readers and
  /// indexes each row as it is read.
  void save(std::ostream& out) const;
  static AllocationProblem load(std::istream& in);

 private:
  using Row = std::vector<double>;

  /// An instance with these capacities (scalar) or capacity matrix
  /// (multi-resource) and no jobs, validated; without_jobs() is this
  /// instance's own.
  static AllocationProblem with_sites(Row capacities);
  static AllocationProblem with_site_matrix(Matrix capacity_matrix);
  AllocationProblem without_jobs() const;
  /// Appends the rows of dense input matrices through append_job, after
  /// checking the matrices' heights.
  void feed_rows(const Matrix& demands, const Matrix& workloads,
                 const Row& weights, const Matrix& profiles);
  /// Validates one job row against this instance and appends it;
  /// messages name the row it would become. An empty `workloads` row
  /// means none (the first job decides whether the instance tracks
  /// workloads); an empty `profile` is the unit profile.
  void append_job(const Row& demands, const Row& workloads, double weight,
                  Row profile);
  /// Raw task-unit demand of entry `entry`.
  double task_at(std::size_t entry) const {
    return multi_resource() ? task_[entry] : demands_.entries[entry].value;
  }
  Row profile_row(int job) const {
    return multi_resource() ? profiles_[static_cast<std::size_t>(job)] : Row{};
  }
  /// equal_split_share of job `job` given Σ_j weight_j.
  double split_share(std::size_t job, double weight_total) const;

  std::vector<double> capacities_;   ///< effective (binding-min) capacities
  std::vector<double> weights_;
  flow::DemandRows demands_;         ///< positive effective demands
  /// Raw workloads aligned with demands_.entries (empty without them).
  std::vector<double> work_;
  bool has_work_ = false;

  // --- multi-resource state (all empty on scalar instances) ---
  Matrix capacity_matrix_;  ///< m×R; non-empty ⟺ multi_resource()
  Matrix profiles_;         ///< n×R Leontief rows
  std::vector<double> gammas_;  ///< cached max_r profiles_[j][r]
  /// Raw task-unit demands aligned with demands_.entries.
  std::vector<double> task_;
};

}  // namespace amf::core
