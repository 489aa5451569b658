#include "core/jct.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "flow/lower_bounds.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Flow tolerance of the add-on's feasibility checks.
constexpr double kEps = 1e-9;
// Binary-search resolution per filling round.
constexpr int kSearchIters = 30;
// Per-job closed-form refinement rounds after filling.
constexpr int kRefinePasses = 2;
// Progressive-filling rounds: each freezes at least one blocked job; more
// rounds come closer to the lexicographic optimum, fewer run faster (the
// simulator calls the add-on at every event).
constexpr int kMaxFreezeRounds = 8;
}  // namespace

std::vector<double> completion_times(const AllocationProblem& problem,
                                     const Allocation& allocation) {
  AMF_REQUIRE(problem.has_workloads(),
              "completion times need workload information");
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  std::vector<double> jct(static_cast<std::size_t>(problem.jobs()), 0.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double t = 0.0;
    for (int s = 0; s < problem.sites(); ++s) {
      double w = problem.workload(j, s);
      if (w <= 0.0) continue;
      double a = allocation.share(j, s);
      t = (a <= 0.0) ? kInf : std::max(t, w / a);
    }
    jct[static_cast<std::size_t>(j)] = t;
  }
  return jct;
}

std::vector<double> slowdowns(const AllocationProblem& problem,
                              const Allocation& allocation) {
  auto jct = completion_times(problem, allocation);
  std::vector<double> sd(jct.size(), 1.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double work = problem.total_work(j);
    double agg = allocation.aggregate(j);
    if (work <= 0.0 || agg <= 0.0) continue;
    sd[static_cast<std::size_t>(j)] = jct[static_cast<std::size_t>(j)] /
                                      (work / agg);
  }
  return sd;
}

std::vector<double> aggregate_rate_completion_times(
    const AllocationProblem& problem, const Allocation& allocation) {
  AMF_REQUIRE(problem.has_workloads(),
              "completion times need workload information");
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  std::vector<double> t(static_cast<std::size_t>(problem.jobs()), 0.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double work = problem.total_work(j);
    if (work <= 0.0) continue;
    double agg = allocation.aggregate(j);
    t[static_cast<std::size_t>(j)] = agg <= 0.0 ? kInf : work / agg;
  }
  return t;
}

Allocation JctAddon::optimize(const AllocationProblem& problem,
                              const Allocation& base) const {
  AMF_REQUIRE(problem.jobs() == base.jobs(),
              "problem/allocation size mismatch");
  const int n = problem.jobs();
  const int m = problem.sites();
  const std::string policy = base.policy().empty()
                                 ? std::string("JCT")
                                 : base.policy() + "+JCT";
  if (n == 0) return Allocation(Matrix{}, policy);
  AMF_REQUIRE(problem.has_workloads(), "JCT add-on needs workloads");

  const auto& aggregates = base.aggregates();

  // Per-job proportional ideal completion time and the ceiling on the
  // speed fraction u the demand caps alone allow (u = 1 means the job
  // finishes in exactly W_j / A_j).
  std::vector<double> ideal(static_cast<std::size_t>(n), 0.0);
  std::vector<double> u_cap(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    double work = problem.total_work(j);
    double agg = aggregates[static_cast<std::size_t>(j)];
    if (work <= 0.0 || agg <= 0.0) continue;
    double t_ideal = work / agg;
    ideal[static_cast<std::size_t>(j)] = t_ideal;
    double cap = 1.0;
    for (int s = 0; s < m; ++s) {
      double w = problem.workload(j, s);
      if (w <= 0.0) continue;
      cap = std::min(cap, problem.demand(j, s) * t_ideal / w);
    }
    u_cap[static_cast<std::size_t>(j)] = cap;
  }

  // Flow layout: 0 = source, 1..n jobs, n+1..n+m sites, last = sink.
  const int node_count = 2 + n + m;
  const flow::NodeId source = 0, sink = node_count - 1;
  auto job_node = [](int j) { return 1 + j; };
  auto site_node = [n](int s) { return 1 + n + s; };

  // Feasible realization of the aggregates with per-job guaranteed speed
  // fractions u[j] (rate at every worked site >= u[j] · ideal rate).
  auto solve_at = [&](const std::vector<double>& u)
      -> std::optional<std::vector<double>> {
    std::vector<flow::BoundedEdge> edges;
    edges.reserve(static_cast<std::size_t>(n) * (m + 1) + m);
    for (int j = 0; j < n; ++j) {
      double agg = aggregates[static_cast<std::size_t>(j)];
      edges.push_back({source, job_node(j), agg, agg});
      for (int s = 0; s < m; ++s) {
        double d = problem.demand(j, s);
        if (d <= 0.0) continue;
        double lower = 0.0;
        double w = problem.workload(j, s);
        if (w > 0.0 && ideal[static_cast<std::size_t>(j)] > 0.0 &&
            u[static_cast<std::size_t>(j)] > 0.0) {
          lower = std::min(
              d, w * u[static_cast<std::size_t>(j)] /
                     ideal[static_cast<std::size_t>(j)]);
        }
        edges.push_back({job_node(j), site_node(s), lower, d});
      }
    }
    for (int s = 0; s < m; ++s)
      edges.push_back({site_node(s), sink, 0.0, problem.capacity(s)});
    return flow::feasible_flow_with_lower_bounds(node_count, edges, source,
                                                 sink, kEps);
  };

  auto extract = [&](const std::vector<double>& flows) {
    Matrix a(static_cast<std::size_t>(n),
             std::vector<double>(static_cast<std::size_t>(m), 0.0));
    // Edge order mirrors solve_at: per job, the source arc then its
    // positive-demand site arcs.
    std::size_t idx = 0;
    for (int j = 0; j < n; ++j) {
      ++idx;  // source→job arc
      for (int s = 0; s < m; ++s) {
        if (problem.demand(j, s) <= 0.0) continue;
        a[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
            std::max(0.0, flows[idx]);
        ++idx;
      }
    }
    return a;
  };

  // Progressive filling on speed fractions: unfrozen jobs rise together as
  // f·u_cap[j]; jobs blocked by a tight cut freeze at the critical f.
  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<double> u_now(static_cast<std::size_t>(n), 0.0);
  int unfrozen = 0;
  for (int j = 0; j < n; ++j) {
    if (u_cap[static_cast<std::size_t>(j)] <= 0.0)
      frozen[static_cast<std::size_t>(j)] = 1;  // no work or no allocation
    else
      ++unfrozen;
  }

  auto u_at = [&](double f) {
    std::vector<double> u(u_now);
    for (int j = 0; j < n; ++j)
      if (!frozen[static_cast<std::size_t>(j)])
        u[static_cast<std::size_t>(j)] =
            f * u_cap[static_cast<std::size_t>(j)];
    return u;
  };

  auto best = solve_at(u_now);
  AMF_ASSERT(best.has_value(),
             "aggregates must be realizable with zero lower bounds");
  double f_lo = 0.0;

  for (int round = 0; round < kMaxFreezeRounds && unfrozen > 0; ++round) {
    // Fast path: everyone can reach their demand-cap ceiling.
    if (auto full = solve_at(u_at(1.0))) {
      best = std::move(full);
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)])
          u_now[static_cast<std::size_t>(j)] =
              u_cap[static_cast<std::size_t>(j)];
      break;
    }

    // Binary search the critical common fraction (monotone in f).
    double lo = f_lo, hi = 1.0;
    for (int it = 0; it < kSearchIters; ++it) {
      double mid = 0.5 * (lo + hi);
      if (auto flows = solve_at(u_at(mid))) {
        lo = mid;
        best = std::move(flows);
      } else {
        hi = mid;
      }
    }
    f_lo = lo;
    for (int j = 0; j < n; ++j)
      if (!frozen[static_cast<std::size_t>(j)])
        u_now[static_cast<std::size_t>(j)] =
            lo * u_cap[static_cast<std::size_t>(j)];

    const bool last_round = (round + 1 == kMaxFreezeRounds);
    int newly = 0;
    if (!last_round) {
      // Identify the jobs pinned by the tight cut via residual analysis
      // of the realized allocation x: job j can keep rising only if, at
      // every worked site where x sits on its lower bound, x[j][s] can be
      // raised by rerouting other jobs' shares — i.e. the residual
      // digraph (site→job arcs where a job can shed, job→site arcs where
      // it can absorb, site→T where capacity is slack) carries a path
      // from that site to T or back to j. Conservative (freezing early
      // costs a little optimality, never correctness).
      const Matrix x = extract(*best);
      const double tol = 1e-9 * problem.scale();

      auto lower_at = [&](int j, int s) {
        double w = problem.workload(j, s);
        if (w <= 0.0 || ideal[static_cast<std::size_t>(j)] <= 0.0) return 0.0;
        return std::min(problem.demand(j, s),
                        w * u_now[static_cast<std::size_t>(j)] /
                            ideal[static_cast<std::size_t>(j)]);
      };

      // Reverse reachability to T (any site with slack) through the
      // residual digraph; nodes are jobs [0,n) and sites [n, n+m).
      auto node_of_site = [n](int s) { return n + s; };
      std::vector<std::vector<int>> radj(static_cast<std::size_t>(n + m));
      std::vector<char> reaches_T(static_cast<std::size_t>(n + m), 0);
      std::vector<int> stack;
      for (int s = 0; s < m; ++s) {
        double used = 0.0;
        for (int j = 0; j < n; ++j)
          used += x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
        if (used < problem.capacity(s) - tol) {
          reaches_T[static_cast<std::size_t>(node_of_site(s))] = 1;
          stack.push_back(node_of_site(s));
        }
      }
      // radj holds reverse arcs: radj[v] = predecessors of v.
      for (int j = 0; j < n; ++j)
        for (int s = 0; s < m; ++s) {
          double xv = x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
          if (xv < problem.demand(j, s) - tol)  // arc job→site
            radj[static_cast<std::size_t>(node_of_site(s))].push_back(j);
          if (xv > lower_at(j, s) + tol)  // arc site→job
            radj[static_cast<std::size_t>(j)].push_back(node_of_site(s));
        }
      while (!stack.empty()) {
        int v = stack.back();
        stack.pop_back();
        for (int p : radj[static_cast<std::size_t>(v)])
          if (!reaches_T[static_cast<std::size_t>(p)]) {
            reaches_T[static_cast<std::size_t>(p)] = 1;
            stack.push_back(p);
          }
      }

      // Forward reachability from a site, lazily, to answer "s reaches j".
      auto site_reaches_job = [&](int s0, int target) {
        std::vector<char> seen(static_cast<std::size_t>(n + m), 0);
        std::vector<int> bfs{node_of_site(s0)};
        seen[static_cast<std::size_t>(node_of_site(s0))] = 1;
        while (!bfs.empty()) {
          int v = bfs.back();
          bfs.pop_back();
          if (v == target) return true;
          if (v < n) {  // job node: arcs to sites it can absorb at
            for (int s = 0; s < m; ++s)
              if (x[static_cast<std::size_t>(v)][static_cast<std::size_t>(s)] <
                      problem.demand(v, s) - tol &&
                  !seen[static_cast<std::size_t>(node_of_site(s))]) {
                seen[static_cast<std::size_t>(node_of_site(s))] = 1;
                bfs.push_back(node_of_site(s));
              }
          } else {  // site node: arcs to jobs that can shed here
            int s = v - n;
            for (int j = 0; j < n; ++j)
              if (x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] >
                      lower_at(j, s) + tol &&
                  !seen[static_cast<std::size_t>(j)]) {
                seen[static_cast<std::size_t>(j)] = 1;
                bfs.push_back(j);
              }
          }
        }
        return false;
      };

      for (int j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (u_now[static_cast<std::size_t>(j)] >=
            u_cap[static_cast<std::size_t>(j)] - 1e-12) {
          frozen[static_cast<std::size_t>(j)] = 1;  // at its demand ceiling
          --unfrozen;
          ++newly;
          continue;
        }
        bool can_rise = true;
        for (int s = 0; s < m && can_rise; ++s) {
          double w = problem.workload(j, s);
          if (w <= 0.0) continue;
          double xv = x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
          if (xv > lower_at(j, s) + tol) continue;  // headroom at this site
          // Tight: x[j][s] must grow with the lower bound.
          if (xv >= problem.demand(j, s) - tol) {
            can_rise = false;  // demand cap (numerically) pins it
          } else if (!reaches_T[static_cast<std::size_t>(node_of_site(s))] &&
                     !site_reaches_job(s, j)) {
            can_rise = false;  // no residual room to reroute into this site
          }
        }
        if (!can_rise) {
          frozen[static_cast<std::size_t>(j)] = 1;
          --unfrozen;
          ++newly;
        }
      }
    }
    if (last_round || newly == 0) {
      // Out of rounds (or a numerically fuzzy cut): settle everyone at
      // the last feasible common level.
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)]) {
          frozen[static_cast<std::size_t>(j)] = 1;
          --unfrozen;
        }
    }
  }

  // Final solve at the frozen fractions so the returned allocation honors
  // every job's guaranteed rate simultaneously.
  if (auto final_flows = solve_at(u_now)) best = std::move(final_flows);

  Matrix shares = extract(*best);

  // Per-job refinement: each pass re-splits one job's aggregate optimally
  // against the current residual site capacities (closed form), walking
  // jobs from worst slowdown to best. Only helps where headroom exists,
  // but costs little and composes with the filling above.
  std::vector<double> residual(static_cast<std::size_t>(m));
  auto recompute_residual = [&] {
    for (int s = 0; s < m; ++s) {
      double used = 0.0;
      for (int j = 0; j < n; ++j)
        used += shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      residual[static_cast<std::size_t>(s)] =
          std::max(0.0, problem.capacity(s) - used);
    }
  };

  for (int pass = 0; pass < kRefinePasses; ++pass) {
    recompute_residual();
    Allocation current(shares, policy);
    auto sd = slowdowns(problem, current);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return sd[static_cast<std::size_t>(a)] > sd[static_cast<std::size_t>(b)];
    });

    for (int j : order) {
      double agg = aggregates[static_cast<std::size_t>(j)];
      if (agg <= 0.0 || problem.total_work(j) <= 0.0) continue;
      auto& row = shares[static_cast<std::size_t>(j)];

      // Upper bound per site: demand cap, and current share plus whatever
      // the site has left over.
      std::vector<double> upper(static_cast<std::size_t>(m));
      double upper_total = 0.0;
      for (int s = 0; s < m; ++s) {
        upper[static_cast<std::size_t>(s)] =
            std::min(problem.demand(j, s),
                     row[static_cast<std::size_t>(s)] +
                         residual[static_cast<std::size_t>(s)]);
        upper_total += upper[static_cast<std::size_t>(s)];
      }
      if (upper_total < agg) continue;  // numeric slack; leave as is

      // Best completion time attainable within the bounds.
      double t_best = problem.total_work(j) / agg;
      for (int s = 0; s < m; ++s) {
        double w = problem.workload(j, s);
        if (w <= 0.0) continue;
        double u = upper[static_cast<std::size_t>(s)];
        if (u <= 0.0) {
          t_best = kInf;
          break;
        }
        t_best = std::max(t_best, w / u);
      }
      if (!std::isfinite(t_best)) continue;

      // Required rate per site, then spread the leftover over headroom.
      std::vector<double> next(static_cast<std::size_t>(m), 0.0);
      double needed_total = 0.0;
      for (int s = 0; s < m; ++s) {
        double w = problem.workload(j, s);
        double need = w > 0.0 ? w / t_best : 0.0;
        need = std::min(need, upper[static_cast<std::size_t>(s)]);
        next[static_cast<std::size_t>(s)] = need;
        needed_total += need;
      }
      double leftover = agg - needed_total;
      if (leftover < 0.0) continue;  // rounding; keep previous split
      for (int s = 0; s < m && leftover > 0.0; ++s) {
        double headroom =
            upper[static_cast<std::size_t>(s)] - next[static_cast<std::size_t>(s)];
        double take = std::min(headroom, leftover);
        next[static_cast<std::size_t>(s)] += take;
        leftover -= take;
      }
      if (leftover > kEps * problem.scale()) continue;  // could not place all

      // Commit and update residuals.
      for (int s = 0; s < m; ++s) {
        residual[static_cast<std::size_t>(s)] +=
            row[static_cast<std::size_t>(s)] - next[static_cast<std::size_t>(s)];
        residual[static_cast<std::size_t>(s)] =
            std::max(0.0, residual[static_cast<std::size_t>(s)]);
        row[static_cast<std::size_t>(s)] = next[static_cast<std::size_t>(s)];
      }
    }
  }

  return Allocation(std::move(shares), policy);
}

}  // namespace amf::core
