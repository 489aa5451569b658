#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/stability.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace amf::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct SimCounters {
  obs::Counter events;
  obs::Counter fault_events;
  obs::Counter deltas;
  obs::Counter warm_events;
  obs::Histogram alloc_ms;
  SimCounters() {
    auto& reg = obs::Registry::global();
    events = reg.counter("amf_sim_events", "reallocation events processed");
    fault_events = reg.counter("amf_sim_fault_events",
                               "site fault events (outage/degrade/recover) "
                               "applied");
    deltas = reg.counter("amf_sim_deltas",
                         "problem deltas fed to the incremental engine");
    warm_events = reg.counter(
        "amf_sim_warm_events",
        "events whose workspace was still primed when they arrived");
    alloc_ms = reg.histogram("amf_sim_alloc_ms",
                             "per-event policy allocate wall time (ms)");
  }
};

SimCounters& sim_counters() {
  static SimCounters counters;
  return counters;
}

struct ActiveJob {
  int id = 0;
  double arrival = 0.0;
  double total_work = 0.0;
  std::vector<double> remaining;  // per site
  std::vector<double> demands;    // original caps, per site
  /// Uncommitted progress per site: work processed there since the part's
  /// last loss point. What an outage (partially) destroys.
  std::vector<double> processed;
  /// Sites where this job can ever have residual work (initial workload
  /// above tolerance). Work only moves between sites in this list
  /// (migration penalties and outage losses re-inflate existing residual
  /// parts, never create new ones), so every per-site engine loop can
  /// iterate it instead of all m sites. The skipped sites contribute
  /// exact zeros, so sparse iteration is bit-identical to dense.
  std::vector<int> sites;
  double weight = 1.0;
  /// Leontief profile and its dominant-share coefficient γ = max entry
  /// (empty / 1.0 outside multi-resource traces). Allocation shares are
  /// dominant units; the task rate that drains `remaining` is share/γ.
  std::vector<double> profile;
  double gamma = 1.0;

  bool done(double tol) const {
    for (double r : remaining)
      if (r > tol) return false;
    return true;
  }
};

/// Previous event's placement of one job: the share row the policy chose
/// plus its aggregate as the Allocation constructor computed it (stored,
/// not recomputed, so the incremental churn path reuses the exact double).
struct PrevPlacement {
  std::vector<int> sites;  ///< the share row's sites, ascending
  std::vector<double> shares;
  double aggregate = 0.0;

  double share(int site) const {
    const auto it = std::lower_bound(sites.begin(), sites.end(), site);
    return it != sites.end() && *it == site
               ? shares[static_cast<std::size_t>(it - sites.begin())]
               : 0.0;
  }
};

/// Trace contract checks at the Simulator::run boundary: a malformed
/// trace must throw ContractError before touching the event loop.
void validate_trace(const workload::Trace& trace) {
  const int m = static_cast<int>(trace.capacities.size());
  AMF_REQUIRE(m > 0, "trace needs at least one site");
  for (double c : trace.capacities)
    AMF_REQUIRE(std::isfinite(c) && c >= 0.0,
                "trace capacities must be finite, >= 0");
  for (const auto& job : trace.jobs) {
    AMF_REQUIRE(static_cast<int>(job.workloads.size()) == m,
                "trace job workload width mismatch");
    AMF_REQUIRE(static_cast<int>(job.demands.size()) == m,
                "trace job demand width mismatch");
    AMF_REQUIRE(std::isfinite(job.arrival) && job.arrival >= 0.0,
                "trace arrivals must be finite, >= 0");
    AMF_REQUIRE(std::isfinite(job.weight) && job.weight > 0.0,
                "trace job weights must be finite, > 0");
    for (int s = 0; s < m; ++s) {
      const double w = job.workloads[static_cast<std::size_t>(s)];
      const double d = job.demands[static_cast<std::size_t>(s)];
      AMF_REQUIRE(std::isfinite(w) && w >= 0.0,
                  "trace workloads must be finite, >= 0");
      AMF_REQUIRE(std::isfinite(d) && d >= 0.0,
                  "trace demands must be finite, >= 0");
      AMF_REQUIRE(w == 0.0 || d > 0.0,
                  "positive trace workload requires positive demand cap");
    }
  }
  for (std::size_t i = 1; i < trace.jobs.size(); ++i)
    AMF_REQUIRE(trace.jobs[i].arrival >= trace.jobs[i - 1].arrival,
                "trace must be sorted by arrival");
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto& ev = trace.events[i];
    AMF_REQUIRE(std::isfinite(ev.time) && ev.time >= 0.0,
                "fault event times must be finite, >= 0");
    AMF_REQUIRE(ev.site >= 0 && ev.site < m,
                "fault event site index out of range");
    // The kind constraints bind on the minimum surviving factor: with
    // per-resource factors that is the binding resource, otherwise the
    // uniform scalar factor.
    double factor = ev.capacity_factor;
    if (!ev.capacity_factors.empty()) {
      AMF_REQUIRE(static_cast<int>(ev.capacity_factors.size()) ==
                      trace.resources(),
                  "fault event factor width mismatch");
      factor = ev.capacity_factors.front();
      for (double f : ev.capacity_factors) {
        AMF_REQUIRE(std::isfinite(f) && f >= 0.0 && f <= 1.0,
                    "fault capacity factor must be finite, in [0, 1]");
        factor = std::min(factor, f);
      }
    } else {
      AMF_REQUIRE(std::isfinite(ev.capacity_factor) &&
                      ev.capacity_factor >= 0.0 && ev.capacity_factor <= 1.0,
                  "fault capacity factor must be finite, in [0, 1]");
    }
    switch (ev.kind) {
      case workload::SiteEventKind::kOutage:
        AMF_REQUIRE(factor == 0.0,
                    "outage events must carry capacity factor 0");
        for (double f : ev.capacity_factors)
          AMF_REQUIRE(f == 0.0,
                      "outage events must zero every resource factor");
        break;
      case workload::SiteEventKind::kDegrade:
        AMF_REQUIRE(factor > 0.0 && factor < 1.0,
                    "degrade events must carry a factor in (0, 1)");
        break;
      case workload::SiteEventKind::kRecover:
        AMF_REQUIRE(factor > 0.0,
                    "recover events must carry a factor in (0, 1]");
        break;
    }
    if (i > 0)
      AMF_REQUIRE(ev.time >= trace.events[i - 1].time,
                  "fault events must be sorted by time");
  }
  if (trace.multi_resource()) {
    const int r = trace.resources();
    AMF_REQUIRE(static_cast<int>(trace.capacity_matrix.size()) == m,
                "trace capacity matrix height mismatch");
    for (int s = 0; s < m; ++s) {
      const auto& row = trace.capacity_matrix[static_cast<std::size_t>(s)];
      AMF_REQUIRE(static_cast<int>(row.size()) == r,
                  "trace capacity matrix width mismatch");
      double binding = row.front();
      for (double c : row) {
        AMF_REQUIRE(std::isfinite(c) && c >= 0.0,
                    "trace capacity matrix entries must be finite, >= 0");
        binding = std::min(binding, c);
      }
      AMF_REQUIRE(trace.capacities[static_cast<std::size_t>(s)] == binding,
                  "trace capacities must hold each row's binding minimum");
    }
    for (const auto& job : trace.jobs) {
      if (job.profile.empty()) continue;  // empty = the unit profile
      AMF_REQUIRE(static_cast<int>(job.profile.size()) == r,
                  "trace job profile width mismatch");
      bool any = false;
      for (double p : job.profile) {
        AMF_REQUIRE(std::isfinite(p) && p >= 0.0,
                    "trace job profiles must be finite, >= 0");
        any = any || p > 0.0;
      }
      AMF_REQUIRE(any, "trace job profiles need a positive entry");
    }
  } else {
    for (const auto& job : trace.jobs)
      AMF_REQUIRE(job.profile.empty(),
                  "job profiles need a multi-resource trace");
    for (const auto& ev : trace.events)
      AMF_REQUIRE(ev.capacity_factors.empty(),
                  "per-resource fault factors need a multi-resource trace");
  }
}

}  // namespace

Simulator::Simulator(const core::Allocator& policy, SimulatorConfig config)
    : policy_(policy), config_(config) {
  AMF_REQUIRE(config.migration_penalty >= 0.0,
              "migration penalty must be >= 0");
  AMF_REQUIRE(config.loss_factor >= 0.0 && config.loss_factor <= 1.0,
              "loss factor must be in [0, 1]");
  AMF_REQUIRE(std::isfinite(config.event_budget_ms) &&
                  config.event_budget_ms >= 0.0,
              "event budget must be finite and >= 0");
}

std::vector<JobRecord> Simulator::run(const workload::Trace& trace) {
  const int m = static_cast<int>(trace.capacities.size());
  validate_trace(trace);

  stats_ = RunStats{};
  series_.clear();
  auto& tracer = obs::Tracer::global();
  const long long spans_base = tracer.recorded();
  const long long dropped_base = tracer.dropped();
  double work_scale = 1.0;
  for (const auto& job : trace.jobs)
    for (double w : job.workloads) work_scale = std::max(work_scale, w);
  const double work_tol = 1e-9 * work_scale;
  const double total_capacity = std::accumulate(
      trace.capacities.begin(), trace.capacities.end(), 0.0);

  std::vector<JobRecord> records(trace.jobs.size());
  std::vector<ActiveJob> active;
  double jain_area = 0.0;   // ∫ jain(active aggregates) dt
  double jain_time = 0.0;   // total time with >= 2 active jobs
  std::size_t next_arrival = 0;
  double clock = 0.0;
  double busy_area = 0.0;  // ∫ used-capacity dt
  double dark_area = 0.0;  // ∫ capacity lost to faults dt

  // Fault state: per-site capacity factor and surviving capacity. On a
  // fault-free trace none of this is ever touched, so the engine's
  // numerical path (and output) is identical to the fault-unaware one.
  std::vector<double> avail(static_cast<std::size_t>(m), 1.0);
  std::vector<double> eff_cap = trace.capacities;
  double eff_total = total_capacity;
  // Multi-resource state: the surviving per-resource capacity matrix.
  // eff_cap keeps mirroring its binding minima, so every scalar code path
  // below is untouched; `multi` gates the few places where dominant-unit
  // shares and raw task units diverge.
  const bool multi = trace.multi_resource();
  core::Matrix eff_mat = trace.capacity_matrix;
  std::vector<double> down_since(static_cast<std::size_t>(m), -1.0);
  double latency_sum = 0.0;
  std::size_t next_event = 0;

  // Incremental solve state: one problem instance plus one persistent
  // solver workspace, both mutated by the same delta stream. Row j of the
  // live problem always describes active[j].
  const bool inc = config_.incremental;
  std::optional<core::AllocationProblem> live;
  core::SolverWorkspace ws;
  if (inc) {
    if (multi)
      live = core::AllocationProblem::multi(core::Matrix{}, eff_mat, {});
    else
      live.emplace(core::Matrix{}, eff_cap);
  }
  long long pending_deltas = 0;  // deltas since the last allocate call
  auto apply_delta = [&](core::ProblemDelta delta) {
    ws.apply(delta);  // before the problem consumes the delta's buffers
    *live = std::move(*live).apply(delta);
    sim_counters().deltas.add(1);
    ++pending_deltas;
  };

  // The demand cap row j of the allocation problem carries for site s:
  // zero once the part there drained (no point holding resources there),
  // masked to the surviving capacity at impaired sites so the policy only
  // places work where it can actually run.
  auto desired_demand = [&](const ActiveJob& job, int s) {
    const auto su = static_cast<std::size_t>(s);
    if (job.remaining[su] <= work_tol) return 0.0;
    double cap = job.demands[su];
    if (avail[su] < 1.0) {
      if (multi) {
        // Leontief fit: an impaired site hosts at most
        // min_r eff[s][r]/profile[r] tasks of this job (the scarcest
        // resource per task binds, not the binding-min capacity).
        const auto& eff = eff_mat[su];
        double fit = kInf;
        for (std::size_t r = 0; r < eff.size(); ++r) {
          const double p = job.profile.empty() ? 1.0 : job.profile[r];
          if (p > 0.0) fit = std::min(fit, eff[r] / p);
        }
        cap = std::min(cap, fit);
      } else {
        cap = std::min(cap, eff_cap[su]);
      }
    }
    return cap;
  };
  // Workload at a dark site is hidden from the allocator (it cannot be
  // served there until recovery); the engine still tracks it.
  auto desired_workload = [&](const ActiveJob& job, int s, double demand_cap) {
    const double r = job.remaining[static_cast<std::size_t>(s)];
    return (r > work_tol && demand_cap != 0.0) ? r : 0.0;
  };
  // A job's residual row as an arrival: demand caps and workloads as the
  // policy sees them now (zero off its site list), with its full caps as
  // the arcs a workspace reserves for post-fault unmasking.
  auto arrival = [&](const ActiveJob& job) {
    std::vector<double> drow(static_cast<std::size_t>(m), 0.0);
    std::vector<double> wrow(drow), ceiling(drow);
    for (int s : job.sites) {
      const auto su = static_cast<std::size_t>(s);
      ceiling[su] = job.demands[su];
      drow[su] = desired_demand(job, s);
      wrow[su] = desired_workload(job, s, drow[su]);
    }
    return core::ProblemDelta::job_arrived(std::move(drow), std::move(wrow),
                                           job.weight, std::move(ceiling),
                                           job.profile);
  };

  // Applies every fault event due at the current clock: rescale the
  // site's surviving capacity, destroy uncommitted progress on outages,
  // and account recovery episodes.
  auto apply_due_events = [&] {
    while (next_event < trace.events.size() &&
           trace.events[next_event].time <= clock + 1e-12) {
      const auto& ev = trace.events[next_event];
      const auto s = static_cast<std::size_t>(ev.site);
      if (ev.kind == workload::SiteEventKind::kOutage &&
          config_.loss_factor > 0.0) {
        for (auto& job : active) {
          double& r = job.remaining[s];
          if (r <= work_tol) continue;  // committed part: safe
          const double lost = config_.loss_factor * job.processed[s];
          r += lost;
          stats_.work_lost += lost;
          job.processed[s] = 0.0;
        }
      } else if (ev.kind == workload::SiteEventKind::kOutage) {
        // Perfect checkpointing: progress survives, the loss point moves.
        for (auto& job : active) job.processed[s] = 0.0;
      }
      // The site counts as impaired while its *binding* factor is below 1
      // (with per-resource factors that is their minimum).
      double minf = ev.capacity_factor;
      if (!ev.capacity_factors.empty())
        minf = *std::min_element(ev.capacity_factors.begin(),
                                 ev.capacity_factors.end());
      if (down_since[s] < 0.0 && minf < 1.0) down_since[s] = ev.time;
      if (down_since[s] >= 0.0 && minf >= 1.0) {
        latency_sum += ev.time - down_since[s];
        ++stats_.recoveries;
        down_since[s] = -1.0;
      }
      avail[s] = minf;
      if (multi) {
        auto& eff = eff_mat[s];
        const auto& nominal = trace.capacity_matrix[s];
        for (std::size_t r = 0; r < eff.size(); ++r) {
          const double f = ev.capacity_factors.empty()
                               ? ev.capacity_factor
                               : ev.capacity_factors[r];
          eff[r] = nominal[r] * f;
        }
        eff_cap[s] = flow::binding_min(eff);
        if (inc)
          apply_delta(core::ProblemDelta::set_capacity_vec(ev.site, eff));
      } else {
        eff_cap[s] = trace.capacities[s] * ev.capacity_factor;
        if (inc)
          apply_delta(core::ProblemDelta::site_capacity(ev.site, eff_cap[s]));
      }
      eff_total = std::accumulate(eff_cap.begin(), eff_cap.end(), 0.0);
      AMF_INSTANT_ARG("sim/fault", "site", ev.site);
      sim_counters().fault_events.add(1);
      ++stats_.fault_events;
      ++next_event;
    }
  };

  core::JctAddon addon;
  core::StabilityAddon stability;
  // Previous event's per-site shares, keyed by job id (for churn
  // accounting and the stability add-on).
  std::unordered_map<int, PrevPlacement> prev_shares;

  auto admit_due = [&] {
    while (next_arrival < trace.jobs.size() &&
           trace.jobs[next_arrival].arrival <= clock + 1e-12) {
      const auto& spec = trace.jobs[next_arrival];
      ActiveJob job;
      job.id = static_cast<int>(next_arrival);
      job.arrival = spec.arrival;
      job.remaining = spec.workloads;
      job.demands = spec.demands;
      job.processed.assign(static_cast<std::size_t>(m), 0.0);
      job.weight = spec.weight;
      if (!spec.profile.empty()) {
        job.profile = spec.profile;
        job.gamma = 0.0;
        for (double p : job.profile) job.gamma = std::max(job.gamma, p);
      }
      job.total_work = std::accumulate(spec.workloads.begin(),
                                       spec.workloads.end(), 0.0);
      for (int s = 0; s < m; ++s)
        if (spec.workloads[static_cast<std::size_t>(s)] > work_tol)
          job.sites.push_back(s);
      auto& rec = records[next_arrival];
      rec.id = job.id;
      rec.arrival = spec.arrival;
      rec.total_work = job.total_work;
      if (job.done(work_tol)) {
        rec.completion = spec.arrival;  // empty job: completes on arrival
      } else {
        active.push_back(std::move(job));
        if (inc) apply_delta(arrival(active.back()));
      }
      ++next_arrival;
    }
  };

  while (!active.empty() || next_arrival < trace.jobs.size()) {
    if (config_.max_events > 0 && stats_.events >= config_.max_events) break;
    apply_due_events();
    if (active.empty()) {
      // Idle until the next arrival, processing any fault events that
      // fire in between so the availability integral stays exact.
      const double t_next = trace.jobs[next_arrival].arrival;
      while (next_event < trace.events.size() &&
             trace.events[next_event].time <= t_next + 1e-12) {
        const double t_ev = std::max(clock, trace.events[next_event].time);
        dark_area += (total_capacity - eff_total) * (t_ev - clock);
        clock = t_ev;
        apply_due_events();
      }
      dark_area +=
          (total_capacity - eff_total) * std::max(0.0, t_next - clock);
      clock = std::max(clock, t_next);
      admit_due();
      continue;
    }

    const int n = static_cast<int>(active.size());
    std::optional<core::AllocationProblem> scratch_problem;
    if (inc) {
      // Sync pass: bring the live problem's demand/workload entries up to
      // date with the drained and fault-masked state. Only entries that
      // actually changed turn into deltas; when lowering a demand cap to
      // zero the workload entry must be cleared first (a positive
      // workload with a zero cap is a contract violation). Comparisons
      // read the raw task-unit entries — the `want` values and delta
      // payloads are raw, and on a multi-resource problem the plain
      // accessors report γ-scaled dominant units.
      for (int j = 0; j < n; ++j) {
        const auto& job = active[static_cast<std::size_t>(j)];
        for (int s : job.sites) {
          const double want_d = desired_demand(job, s);
          const double want_w = desired_workload(job, s, want_d);
          if (want_w == 0.0 && live->task_workload(j, s) != 0.0)
            apply_delta(core::ProblemDelta::workload_set(j, s, 0.0));
          if (live->task_demand(j, s) != want_d)
            apply_delta(core::ProblemDelta::demand_set(j, s, want_d));
          if (want_w != 0.0 && live->task_workload(j, s) != want_w)
            apply_delta(core::ProblemDelta::workload_set(j, s, want_w));
        }
      }
    } else {
      // From-scratch path: feed the residual allocation problem anew, one
      // job row at a time.
      if (multi)
        scratch_problem = core::AllocationProblem::multi({}, eff_mat, {});
      else
        scratch_problem.emplace(core::Matrix{}, eff_cap);
      for (const ActiveJob& job : active)
        *scratch_problem = std::move(*scratch_problem).apply(arrival(job));
    }
    const core::AllocationProblem& problem = inc ? *live : *scratch_problem;

    // One span per reallocation event, carrying how many problem deltas
    // it took to bring the live state up to date (0 on the scratch path).
    // The span covers the allocate call and all per-event accounting, so
    // every child span (core/allocate, flow/...) nests inside it.
    AMF_SPAN_ARG("sim/event", "deltas", pending_deltas);
    pending_deltas = 0;
    EventSample sample;
    sample.time = clock;
    sample.warm = inc && ws.primed();
    if (sample.warm) sim_counters().warm_events.add(1);
    const auto alloc_begin = std::chrono::steady_clock::now();

    // Optional per-event time budget, installed as the ambient deadline so
    // it reaches the policy's solvers through the virtual Allocator
    // interface. Scoped to the allocate call only: the JCT and stability
    // add-ons below run unbudgeted (they poll no deadline and always run
    // to completion).
    std::optional<util::ScopedDeadline> event_scope;
    if (config_.event_budget_ms > 0.0)
      event_scope.emplace(util::Deadline::after_ms(config_.event_budget_ms));

    core::Allocation alloc;
    if (inc) {
      if (!ws.primed()) {
        // First event, or the workspace dropped its network (fallback
        // tier switch, unrepresentable delta): re-prime with full arc
        // ceilings so future fault unmasking stays incremental.
        flow::DemandRows ceilings;
        ceilings.width = m;
        for (const ActiveJob& job : active)
          ceilings.append_row(arrival(job).demand_ceiling);
        ws.prime(problem, &ceilings);
      }
      alloc = policy_.allocate(problem, ws);
    } else {
      alloc = policy_.allocate(problem);
    }
    event_scope.reset();
    sample.alloc_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - alloc_begin)
                          .count();
    if (config_.event_budget_ms > 0.0 &&
        sample.alloc_ms > config_.event_budget_ms)
      ++stats_.events_over_budget;
    sample.tier = inc ? ws.serving_tier : -1;
    stats_.alloc_ms += sample.alloc_ms;
    sim_counters().alloc_ms.observe(sample.alloc_ms);
    sim_counters().events.add(1);
    series_.push_back(sample);
    if (config_.use_jct_addon) alloc = addon.optimize(problem, alloc);

    // Previous placement of the current active set: no entries for
    // arrivals. Shares (current and previous) are zero outside a job's
    // site list, so churn, migration and drift only need the list
    // entries, summed in ascending job then site order.
    auto prev_of = [&](int j) -> const PrevPlacement* {
      auto it = prev_shares.find(active[static_cast<std::size_t>(j)].id);
      return it != prev_shares.end() ? &it->second : nullptr;
    };
    if (config_.use_stability_addon) {
      flow::ShareRows prev_rows;
      prev_rows.width = m;
      for (int j = 0; j < n; ++j) {
        if (const PrevPlacement* prev = prev_of(j)) {
          prev_rows.sites.insert(prev_rows.sites.end(), prev->sites.begin(),
                                 prev->sites.end());
          prev_rows.values.insert(prev_rows.values.end(),
                                  prev->shares.begin(), prev->shares.end());
        }
        prev_rows.first.push_back(static_cast<int>(prev_rows.values.size()));
      }
      alloc = stability.optimize(problem, alloc,
                                 core::Allocation(std::move(prev_rows), {}));
    }
    double churn = 0.0;
    for (int j = 0; j < n; ++j) {
      auto& job = active[static_cast<std::size_t>(j)];
      const PrevPlacement* prev = prev_of(j);
      for (int s : job.sites) {
        const double before = prev != nullptr ? prev->share(s) : 0.0;
        const double now = alloc.share(j, s);
        churn += std::abs(now - before);
        // Withdrawing allocation from an unfinished part costs progress.
        const double r = job.remaining[static_cast<std::size_t>(s)];
        if (config_.migration_penalty > 0.0 && prev != nullptr &&
            r > work_tol) {
          double withdrawn = before - now;
          if (multi) withdrawn /= job.gamma;  // dominant units -> tasks
          if (withdrawn > 0.0)
            job.remaining[static_cast<std::size_t>(s)] =
                r + config_.migration_penalty * withdrawn;
        }
      }
    }
    stats_.total_churn += churn;
    for (int j = 0; j < n; ++j) {
      const PrevPlacement* prev = prev_of(j);
      stats_.aggregate_drift += std::abs(
          alloc.aggregate(j) - (prev != nullptr ? prev->aggregate : 0.0));
      const auto row = static_cast<std::size_t>(j);
      const auto sites = alloc.shares().sites_of(row);
      const auto shares = alloc.shares()[row];
      prev_shares[active[row].id] = {{sites.begin(), sites.end()},
                                     {shares.begin(), shares.end()},
                                     alloc.aggregate(j)};
    }
    ++stats_.events;

    // Next event: earliest site-part completion, next arrival, or next
    // fault event.
    double dt = kInf;
    if (next_arrival < trace.jobs.size())
      dt = trace.jobs[next_arrival].arrival - clock;
    if (next_event < trace.events.size())
      dt = std::min(dt, trace.events[next_event].time - clock);
    for (int j = 0; j < n; ++j) {
      const auto& job = active[static_cast<std::size_t>(j)];
      for (int s : job.sites) {
        double r = job.remaining[static_cast<std::size_t>(s)];
        if (r <= work_tol) continue;
        double rate = alloc.share(j, s);
        if (multi) rate /= job.gamma;  // dominant units -> task rate
        if (rate > 0.0) dt = std::min(dt, r / rate);
      }
    }
    AMF_ASSERT(std::isfinite(dt) && dt >= 0.0,
               "simulation stalled: no progress, no arrivals and no "
               "pending fault events (permanent outage with work left?)");

    // Advance time, drain work.
    double used = 0.0;
    for (int j = 0; j < n; ++j) {
      auto& job = active[static_cast<std::size_t>(j)];
      for (int s : job.sites) {
        double r = job.remaining[static_cast<std::size_t>(s)];
        if (r <= work_tol) continue;
        // Utilization integrates the allocated (dominant-unit) share
        // against capacity; work drains at the task rate share/γ.
        double rate = alloc.share(j, s);
        used += rate;
        if (multi) rate /= job.gamma;
        if (rate > 0.0)
          job.processed[static_cast<std::size_t>(s)] += rate * dt;
        double left = r - rate * dt;
        job.remaining[static_cast<std::size_t>(s)] =
            left <= work_tol ? 0.0 : left;
      }
    }
    busy_area += used * dt;
    dark_area += (total_capacity - eff_total) * dt;
    if (n >= 2) {
      jain_area += util::jain_index(alloc.aggregates()) * dt;
      jain_time += dt;
    }
    clock += dt;

    // Retire finished jobs. Row indices shift as rows are erased; the
    // departure deltas carry the index at erase time, matching the
    // order-preserving erase on `active`.
    int row = 0;
    for (auto it = active.begin(); it != active.end();) {
      if (it->done(work_tol)) {
        records[static_cast<std::size_t>(it->id)].completion = clock;
        prev_shares.erase(it->id);
        if (inc) apply_delta(core::ProblemDelta::job_departed(row));
        it = active.erase(it);
      } else {
        ++it;
        ++row;
      }
    }
    if (inc) ws.maybe_compact();
    admit_due();
  }

  stats_.makespan = clock;
  stats_.time_avg_jain = jain_time > 0.0 ? jain_area / jain_time : 1.0;
  stats_.avg_utilization =
      (clock > 0.0 && total_capacity > 0.0) ? busy_area / (clock * total_capacity)
                                            : 0.0;
  // Surviving capacity is the nominal area minus what faults took, so a
  // fault-free run (dark_area == 0) gives avg_utilization bit for bit.
  const double surviving_area = clock * total_capacity - dark_area;
  stats_.avail_utilization =
      surviving_area > 0.0 ? busy_area / surviving_area : 0.0;
  stats_.mean_recovery_latency =
      stats_.recoveries > 0 ? latency_sum / stats_.recoveries : 0.0;
  stats_.spans_recorded = tracer.recorded() - spans_base;
  stats_.spans_dropped = tracer.dropped() - dropped_base;
  if (stats_.events > 0) {
    long long warm = 0;
    for (const EventSample& s : series_) warm += s.warm ? 1 : 0;
    obs::Registry::global()
        .gauge("amf_core_warm_hit_rate",
               "fraction of the last run's events served from a still-primed "
               "workspace")
        .set(static_cast<double>(warm) / stats_.events);
  }
  return records;
}

}  // namespace amf::sim
