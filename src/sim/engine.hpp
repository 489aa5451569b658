// engine.hpp — discrete-event simulator for online distributed job
// execution.
//
// Jobs arrive over time, each carrying per-site workloads and demand
// caps. The simulator holds rates constant between events; at every event
// (arrival, completion of some job's site-part, or a timed site fault) it
// re-runs the configured allocation policy on the remaining work of the
// active jobs — exactly the recompute-on-change operation of a cluster
// scheduler. Site parts drain independently; a job completes when its
// last part does.
//
// Fault semantics (trace.events): each SiteEvent rescales one site's
// usable capacity. While a site is impaired, demand caps at that site are
// masked to the surviving capacity (zero during a full outage), so the
// policy reallocates the displaced jobs elsewhere. An outage additionally
// destroys the *uncommitted* progress of every unfinished site-part
// there: `loss_factor` of the work processed at the site since the part's
// last loss point re-enters the job's remaining workload (completed parts
// are committed and never reopen). A permanently dark site with pending
// work and no recovery event stalls the simulation and is reported as an
// error.
//
// The engine is exact: the next event time is computed in closed form
// from the current rates, so no time-stepping error is introduced.
#pragma once

#include <vector>

#include "core/allocation.hpp"
#include "core/jct.hpp"
#include "workload/trace.hpp"

namespace amf::sim {

/// Per-job outcome of a simulation run.
struct JobRecord {
  int id = 0;
  double arrival = 0.0;
  double completion = 0.0;
  double total_work = 0.0;
  double jct() const { return completion - arrival; }
};

/// Aggregate run statistics.
struct RunStats {
  int events = 0;          ///< number of reallocation points
  double makespan = 0.0;   ///< completion time of the last job
  double avg_utilization = 0.0;  ///< time-averaged fraction of capacity used
  /// Σ over events of the L1 distance between consecutive allocations of
  /// the active jobs (new arrivals count from zero — their initial
  /// placement is real work too). The reallocation cost a stability-aware
  /// scheduler wants to keep low.
  double total_churn = 0.0;
  /// Σ over events of |ΔA_j| (per-job aggregate changes): a lower bound
  /// on total_churn that no realization choice can avoid. The difference
  /// total_churn - aggregate_drift is the churn attributable to the
  /// *placement* choice — what the stability add-on minimizes.
  double aggregate_drift = 0.0;
  /// Time-averaged Jain index of the active jobs' aggregate allocations
  /// (weighted by interval length, over intervals with >= 2 active jobs):
  /// the dynamic counterpart of the paper's balance metric.
  double time_avg_jain = 1.0;
  /// Fault events (outage / degradation / recovery) processed before the
  /// last job completed.
  int fault_events = 0;
  /// Work units destroyed by outages (uncommitted progress × loss factor)
  /// that had to be re-processed.
  double work_lost = 0.0;
  /// Completed failure episodes: a site leaving full health and later
  /// returning to capacity factor 1.
  int recoveries = 0;
  /// Mean wall-clock length of the completed failure episodes.
  double mean_recovery_latency = 0.0;
  /// Availability-weighted utilization: work processed divided by the
  /// capacity that actually survived the fault schedule, ∫ used dt /
  /// ∫ surviving-capacity dt. Equals avg_utilization on a fault-free
  /// trace; under faults it measures how well the policy exploits what
  /// capacity was left.
  double avail_utilization = 0.0;
  /// Wall-clock milliseconds spent inside policy allocate calls (the
  /// solver cost of the run, excluding engine bookkeeping).
  double alloc_ms = 0.0;
  /// Span events recorded (and dropped on ring overflow) by the global
  /// tracer during this run. Zero when tracing is disabled at runtime or
  /// compiled out (AMF_OBS_ENABLED=0).
  long long spans_recorded = 0;
  long long spans_dropped = 0;
  /// Events whose policy allocate call overran the configured
  /// event_budget_ms (0 when unbudgeted). The call still returned a
  /// feasible allocation — the polled deadline plus the robust chain's
  /// salvage guarantee that — it just took longer than the slice.
  int events_over_budget = 0;
};

/// One reallocation point of a run, in event order: the raw material for
/// per-event observability plots (warm-start hit rate, serving-tier
/// timelines, solver latency over time).
struct EventSample {
  double time = 0.0;      ///< simulation clock at the event
  double alloc_ms = 0.0;  ///< wall time of the policy allocate call
  /// The persistent workspace was still primed when the event arrived
  /// (always false on the from-scratch path).
  bool warm = false;
  /// Serving fallback tier (core::FallbackTier) the workspace reported,
  /// -1 when no tier wrote one (unwrapped policy or from-scratch path).
  int tier = -1;
};

struct SimulatorConfig {
  /// Re-split each allocation with the JCT add-on before applying it.
  bool use_jct_addon = false;
  /// Re-split toward the previous event's placement (churn-minimizing
  /// min-cost flow, see core/stability.hpp). Applied after the JCT add-on
  /// when both are set, i.e. stability wins. Costs one min-cost max-flow
  /// per event.
  bool use_stability_addon = false;
  /// Reallocation overhead: for every unit of allocation withdrawn from a
  /// job's *unfinished* site-part, this much work is added back to that
  /// part (preempted tasks lose progress / pay migration cost). 0 (the
  /// default) models free preemption; positive values make placement
  /// churn cost real completion time — the regime where the stability
  /// add-on pays off in JCT, not just in churn (bench F11).
  double migration_penalty = 0.0;
  /// Fraction of a site-part's uncommitted progress destroyed when its
  /// site suffers an outage: 0 models perfect checkpointing (displaced
  /// work resumes elsewhere unharmed), 1 models losing everything since
  /// the part started (or since its last outage).
  double loss_factor = 1.0;
  /// Maintain one AllocationProblem + SolverWorkspace across events and
  /// feed both the per-event deltas (arrivals, departures, drained or
  /// fault-masked demands), instead of rebuilding the problem and the
  /// flow network from scratch at every reallocation point. Results are
  /// bit-for-bit identical to the from-scratch path; per-event cost drops
  /// from O(n·m) rebuild work to O(changes + active nonzeros).
  bool incremental = true;
  /// Replay budget: stop after this many reallocation events (0 = run the
  /// trace to completion). A truncated run leaves the remaining jobs'
  /// completion records at zero; stats cover the processed prefix. Lets
  /// benchmarks compare engines on an identical event prefix of traces
  /// too long to replay in full.
  int max_events = 0;
  /// Wall-clock budget (milliseconds) for each event's policy allocate
  /// call, installed as the ambient deadline (util::ScopedDeadline) around
  /// the call so it reaches the solvers through the Allocator interface.
  /// It is the only budget a RobustAllocator policy sees. 0 (the default)
  /// = unbudgeted, and the event loop is byte-identical to earlier
  /// releases. Pair with a RobustAllocator policy: the budget makes bare
  /// solvers return *partial* allocations, which only the robust chain
  /// knows how to complete (salvage) or replace (per-site).
  double event_budget_ms = 0.0;
};

/// Discrete-event execution engine. The policy must outlive the simulator.
class Simulator {
 public:
  explicit Simulator(const core::Allocator& policy,
                     SimulatorConfig config = {});

  /// Runs the trace to completion and returns one record per job (in
  /// arrival order). Run statistics are available via stats() afterwards.
  std::vector<JobRecord> run(const workload::Trace& trace);

  const RunStats& stats() const { return stats_; }

  /// Per-event samples of the most recent run (cleared at each run()).
  const std::vector<EventSample>& event_series() const { return series_; }

 private:
  const core::Allocator& policy_;
  SimulatorConfig config_;
  RunStats stats_;
  std::vector<EventSample> series_;
};

}  // namespace amf::sim
