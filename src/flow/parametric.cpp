#include "flow/parametric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace amf::flow {

namespace {

// The freezing decision reads residual paths with eps scaled by this: a
// slightly looser threshold keeps jobs with a numerically negligible
// residual path from staying unfrozen forever.
constexpr double kFreezeEps = 16.0;

// Fills `caps` (sized to `sources`) with the source caps at level t.
void caps_at(const std::vector<ParametricSource>& sources, double t,
             std::vector<double>& caps) {
  for (std::size_t j = 0; j < sources.size(); ++j)
    caps[j] = std::max(0.0, sources[j].fixed + sources[j].slope * t);
}

// Level-solver counters, published once per solve_critical_level call.
struct LevelCounters {
  obs::Counter level_solves;
  obs::Counter newton_iters;
  obs::Counter bisection_steps;
  obs::Counter probes;
  obs::Counter job_cut_hits;
  obs::Counter gallop_probes;
  obs::Counter site_bound_rounds;
  LevelCounters() {
    auto& reg = obs::Registry::global();
    level_solves = reg.counter("amf_flow_level_solves",
                               "critical water-level solves");
    newton_iters = reg.counter("amf_flow_newton_iters",
                               "Newton-on-min-cut iterations");
    bisection_steps = reg.counter("amf_flow_bisection_steps",
                                  "bisection refinement steps");
    probes = reg.counter("amf_flow_probes",
                         "feasibility probes issued by the level solver");
    job_cut_hits = reg.counter(
        "amf_flow_job_cut_hits",
        "rounds closed at a job cut proven feasible (demand-bound rounds)");
    gallop_probes = reg.counter(
        "amf_flow_gallop_probes",
        "probes a gallop issued past its run's first feasible job cut");
    site_bound_rounds = reg.counter(
        "amf_flow_site_bound_rounds",
        "Newton level solves whose first step was infeasible, so a cut "
        "through sites binds below the start, or closed at a certified "
        "global-cut start (site-bound rounds)");
  }
};

LevelCounters& level_counters() {
  static LevelCounters counters;
  return counters;
}

}  // namespace

double job_cut_level(const TransportNetwork& net, const ParametricSource& src,
                     int job) {
  if (src.slope <= 0.0) return std::numeric_limits<double>::infinity();
  return (net.solo_ceiling(job) - src.fixed) / src.slope;
}

CriticalLevel solve_critical_level(
    TransportNetwork& net, const std::vector<ParametricSource>& sources,
    double t_lo, double t_hi, double eps, LevelMethod method,
    LevelSolveStats* stats, GallopState* gallop) {
  // Polled before every probe: each is a full max flow, so one clock read
  // per probe is already amortized.
  const util::Deadline deadline = util::ambient_deadline();
  const int n = net.jobs();
  const int m = net.sites();
  AMF_REQUIRE(static_cast<int>(sources.size()) == n,
              "one parametric source per job required");
  AMF_REQUIRE(t_lo <= t_hi, "empty level segment");
  for (const auto& src : sources)
    AMF_REQUIRE(src.slope >= 0.0, "source slopes must be non-negative");

  const double t_tol = eps * std::max({1.0, std::abs(t_hi), std::abs(t_lo)});

  AMF_SPAN_ARG("flow/critical_level", "jobs", n);
  long long newton_iters = 0;
  long long bisection_steps = 0;
  long long probe_count = 0;
  long long gallop_probes = 0;

  double slope_total = 0.0, fixed_total = 0.0;
  for (const auto& src : sources) {
    slope_total += src.slope;
    fixed_total += src.fixed;
  }

  std::vector<double> caps(sources.size());  // reused by every probe
  auto probe_caps = [&] {
    // A probe only feeds saturated()/min_cut()/jobs_can_increase(), all
    // flow-state invariants, so the network may warm-start it. The
    // allocation itself is materialized by the caller with a full solve().
    net.probe(caps, eps);
    if (stats != nullptr) ++stats->flow_solves;
    ++probe_count;
    return net.saturated(eps);
  };
  auto feasible_at = [&](double t) {
    caps_at(sources, t, caps);
    return probe_caps();
  };

  double t = t_hi;
  double known_feasible = t_lo;  // bisection lower bracket
  bool found = false;
  bool job_cut_start = false;
  bool job_cut_first_feasible = false;
  bool site_bound_round = false;
  LevelStatus status = LevelStatus::kConverged;
  constexpr int kMaxNewton = 64;

  // A cut's value line cut_slope·t + cut_fixed, summed in a fixed order
  // (jobs ascending, then sites ascending), so that two descents that
  // read the same cut compute the same level bits.
  auto cut_line = [&](const MinCut& cut) {
    double cut_slope = 0.0, cut_fixed = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!cut.job_in_source_side[static_cast<std::size_t>(j)]) {
        // Source arc of j is cut: contributes cap_j(t).
        cut_slope += sources[static_cast<std::size_t>(j)].slope;
        cut_fixed += sources[static_cast<std::size_t>(j)].fixed;
      } else {
        // Job is on the source side: its crossing demand arcs are cut.
        net.add_row_demand_across(j, cut.site_in_source_side, cut_fixed);
      }
    }
    for (int s = 0; s < m; ++s)
      if (cut.site_in_source_side[static_cast<std::size_t>(s)])
        cut_fixed += net.site_capacity(s);
    return std::pair{cut_slope, cut_fixed};
  };
  // A cut line is numerically flat when D(t) outgrows it by no more than
  // this: Newton bisects instead of solving for its crossing.
  const double flat_slope = eps * std::max(1.0, slope_total);
  // Where a Newton step lands: no lower than the known-feasible bracket,
  // and onto it when within t_tol.
  auto land = [&](double t_new) {
    t_new = std::max(t_new, known_feasible);
    return t_new - known_feasible <= t_tol ? known_feasible : t_new;
  };

  if (method == LevelMethod::kCutNewton) {
    // Start the descent at the tightest job cut: no flow routes more than
    // solo_ceiling(j) into job j, so the cut around j alone bounds the
    // critical level by where cap_j(t) reaches that ceiling.
    for (int j = 0; j < n; ++j) {
      const double t_j =
          job_cut_level(net, sources[static_cast<std::size_t>(j)], j);
      if (t_j < t) {
        t = std::max(t_j, t_lo);
        job_cut_start = true;
      }
    }
  }

  // A gallop's last infeasible probe stands in for this solve's first one
  // when it was made at the same level (see GallopState).
  const bool carried_first = gallop != nullptr && gallop->cut_valid &&
                             method == LevelMethod::kCutNewton &&
                             gallop->cut_level == t;
  if (gallop != nullptr) gallop->cut_valid = false;

  // Otherwise start lower when the global cut (every job and site on the
  // source side: value Σ C_s, slope 0) binds below the job-cut start, by
  // more than t_tol so that a near tie keeps the job-cut path and its
  // gallop. A feasible probe there is kept only under the closure
  // certificate (DESIGN §6); without it the descent restarts at
  // `job_cut_t`.
  const double job_cut_t = t;
  bool global_start = false;
  if (method == LevelMethod::kCutNewton && !carried_first &&
      slope_total > flat_slope) {
    double capacity_total = 0.0;
    for (int s = 0; s < m; ++s) capacity_total += net.site_capacity(s);
    const double t_all = (capacity_total - fixed_total) / slope_total;
    if (t_all < t - t_tol) {
      t = land(t_all);
      global_start = true;
    }
  }
  // Accepts a feasible probe at the global-cut start `level` when the
  // minimal min cut just above it, read off the probe's flow, lands a
  // Newton step on exactly `level`: the cut and the bits the job-cut
  // descent ends on.
  auto closure_certifies = [&](double level) {
    std::vector<char> rising(sources.size());
    for (std::size_t j = 0; j < sources.size(); ++j)
      rising[j] = sources[j].slope > 0.0;
    const MinCut cut = net.rising_closure_cut(rising, eps);
    // A closure holding every job and site is the global cut itself: its
    // line, summed in cut_line's order, is the one that gave `level`.
    auto all = [](const std::vector<char>& side) {
      return std::find(side.begin(), side.end(), 0) == side.end();
    };
    if (all(cut.job_in_source_side) && all(cut.site_in_source_side))
      return true;
    const auto [cut_slope, cut_fixed] = cut_line(cut);
    const double dslope = slope_total - cut_slope;
    return dslope > flat_slope &&
           land((cut_fixed - fixed_total) / dslope) == level;
  };

  if (method == LevelMethod::kBisection) {
    // Ablation baseline: plain bisection, no cut analysis. It must close
    // the bracket well below the residual threshold used by the freezing
    // BFS, otherwise the leftover level gap leaks enough slack into the
    // binding cut that no job appears frozen.
    if (deadline.expired()) {
      t = known_feasible;
      status = LevelStatus::kDeadlineExceeded;
      found = true;
    } else if (feasible_at(t_hi)) {
      found = true;
    } else {
      const double deep_tol = t_tol * 1e-3;
      double lo = t_lo, hi = t_hi;
      for (int it = 0; it < 200 && hi - lo > deep_tol; ++it) {
        if (deadline.expired()) {
          status = LevelStatus::kDeadlineExceeded;
          break;
        }
        ++bisection_steps;
        double mid = 0.5 * (lo + hi);
        (feasible_at(mid) ? lo : hi) = mid;
      }
      t = lo;
      if (status != LevelStatus::kDeadlineExceeded && !feasible_at(t))
        status = LevelStatus::kDegenerate;
      found = true;
    }
  }

  bool first_step = true;  // the next probe is at the descent's start
  for (int iter = 0; !found && iter < kMaxNewton; ++iter) {
    AMF_SPAN("flow/newton_iter");
    if (deadline.expired()) {
      t = known_feasible;
      status = LevelStatus::kDeadlineExceeded;
      found = true;
      break;
    }
    ++newton_iters;
    const bool carried = first_step && carried_first;
    const bool feasible = !carried && feasible_at(t);
    if (first_step) {
      first_step = false;
      if (feasible && global_start) {
        global_start = false;
        if (closure_certifies(t)) {
          site_bound_round = true;  // the global cut binds
          found = true;
          break;
        }
        t = job_cut_t;
        first_step = true;
        continue;
      }
      job_cut_first_feasible = job_cut_start && feasible;
      site_bound_round = !feasible;
    }
    if (feasible) {
      found = true;
      break;
    }
    // Read the binding min cut and jump to where its value meets demand.
    const auto [cut_slope, cut_fixed] =
        cut_line(carried ? std::move(gallop->cut) : net.min_cut(eps));

    // Solve cut_slope·t' + cut_fixed = slope_total·t' + fixed_total.
    const double dslope = slope_total - cut_slope;
    double t_new;
    if (dslope <= flat_slope) {
      // Degenerate cut (numerically flat): bisect instead.
      t_new = 0.5 * (known_feasible + t);
    } else {
      t_new = (cut_fixed - fixed_total) / dslope;
      // Newton must strictly descend; otherwise fall back to bisection.
      if (!(t_new < t - t_tol)) t_new = 0.5 * (known_feasible + t);
    }
    t = land(std::min(t_new, t));
    if (t == known_feasible) {
      // The caller guaranteed feasibility here; solve to materialize it.
      if (!feasible_at(t)) status = LevelStatus::kDegenerate;
      found = true;
      break;
    }
  }

  // A feasible first probe at the tightest job cut opens a run of
  // demand-bound rounds: gallop to the run's last level (header comment).
  long long rounds_at_job_cuts = job_cut_first_feasible ? 1 : 0;
  std::vector<char> can_increase;  // read at the returned level
  if (gallop != nullptr && job_cut_first_feasible && t < t_hi - t_tol) {
    can_increase = net.jobs_can_increase(kFreezeEps * eps);
    std::vector<double> cut(sources.size());
    for (int j = 0; j < n; ++j)
      cut[static_cast<std::size_t>(j)] = std::max(
          job_cut_level(net, sources[static_cast<std::size_t>(j)], j), t_lo);
    // A job that is neither frozen nor at its ceiling yet but cannot rise
    // closes the run at this level.
    auto run_continues = [&](double level, const std::vector<char>& can) {
      for (std::size_t j = 0; j < sources.size(); ++j)
        if (!sources[j].frozen && cut[j] > level && !can[j]) return false;
      return true;
    };
    if (run_continues(t, can_increase)) {
      std::vector<double> levels{t};
      for (double c : cut)
        if (c > t && c < t_hi - t_tol) levels.push_back(c);
      std::sort(levels.begin() + 1, levels.end());
      levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
      // levels[lo] continues the run; levels[hi] (when hi < size) does
      // not: infeasible, or feasible with a stuck job (`hi_blocked`).
      std::size_t lo = 0, hi = levels.size(), step = 1;
      bool galloping = true, hi_blocked = false;
      std::vector<char> hi_can;
      MinCut hi_cut;
      while (lo + 1 < hi) {
        if (deadline.expired()) {
          status = LevelStatus::kDeadlineExceeded;
          hi = levels.size();
          break;
        }
        const std::size_t p =
            galloping ? std::min(lo + step, hi - 1) : lo + (hi - lo) / 2;
        const double level = levels[p];
        for (std::size_t j = 0; j < sources.size(); ++j) {
          const auto& src = sources[j];
          caps[j] = cut[j] < level
                        ? std::max(src.floor, src.fixed + src.slope * cut[j])
                        : std::max(0.0, src.fixed + src.slope * level);
        }
        ++gallop_probes;
        if (probe_caps()) {
          auto can = net.jobs_can_increase(kFreezeEps * eps);
          if (run_continues(level, can)) {
            lo = p;
            can_increase = std::move(can);
            step *= 2;
            continue;
          }
          hi_blocked = true;
          hi_can = std::move(can);
        } else {
          hi_blocked = false;
          hi_cut = net.min_cut(eps);
        }
        hi = p;
        galloping = false;
      }
      std::size_t last = lo;
      if (hi < levels.size() && hi_blocked) {
        last = hi;
        can_increase = std::move(hi_can);
      } else if (hi < levels.size()) {
        gallop->cut_valid = true;
        gallop->cut_level = levels[hi];
        gallop->cut = std::move(hi_cut);
      }
      t = levels[last];
      rounds_at_job_cuts = static_cast<long long>(last) + 1;
    }
  }

  if (!found) {
    // Newton exhausted its budget (possible only under severe floating-
    // point degeneracy): finish with plain bisection. The result is still
    // usable but reported as iteration-capped so callers can distrust it.
    status = LevelStatus::kIterationCapped;
    double lo = known_feasible, hi = t;
    for (int i = 0; i < 80 && hi - lo > t_tol; ++i) {
      if (deadline.expired()) {
        status = LevelStatus::kDeadlineExceeded;
        break;
      }
      ++bisection_steps;
      double mid = 0.5 * (lo + hi);
      if (feasible_at(mid))
        lo = mid;
      else
        hi = mid;
    }
    t = lo;
    if (status != LevelStatus::kDeadlineExceeded && !feasible_at(t))
      status = LevelStatus::kDegenerate;
  }

  if (stats != nullptr) stats->observe(status);

  LevelCounters& counters = level_counters();
  counters.level_solves.add(1);
  if (newton_iters > 0) counters.newton_iters.add(newton_iters);
  if (bisection_steps > 0) counters.bisection_steps.add(bisection_steps);
  if (probe_count > 0) counters.probes.add(probe_count);
  if (rounds_at_job_cuts > 0) counters.job_cut_hits.add(rounds_at_job_cuts);
  if (gallop_probes > 0) counters.gallop_probes.add(gallop_probes);
  if (site_bound_round) counters.site_bound_rounds.add(1);

  CriticalLevel result;
  result.status = status;
  result.level = t;
  result.segment_exhausted = (t >= t_hi - t_tol);
  result.can_increase = can_increase.empty()
                            ? net.jobs_can_increase(kFreezeEps * eps)
                            : std::move(can_increase);
  return result;
}

}  // namespace amf::flow
