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
  // Workloads are positive only on demand entries, so the max runs over
  // each row's entries in ascending site order.
  std::vector<double> jct(static_cast<std::size_t>(problem.jobs()), 0.0);
  const flow::DemandRows& rows = problem.demands();
  for (int j = 0; j < problem.jobs(); ++j) {
    double t = 0.0;
    for (std::size_t k : rows.indices(j)) {
      double w = problem.entry_workload(j, k);
      if (w <= 0.0) continue;
      double a = allocation.share(j, rows.entries[k].site);
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
  if (n == 0) return Allocation(flow::ShareRows{}, policy);
  AMF_REQUIRE(problem.has_workloads(), "JCT add-on needs workloads");

  const auto& aggregates = base.aggregates();
  // Every quantity below lives on the demand entries: entry k of row j is
  // job j's positive demand at site entries[k].site, and shares,
  // workloads and bounds are arrays aligned with the entries. Shares and
  // workloads off the entries are zero, so no loop visits them.
  const flow::DemandRows& rows = problem.demands();
  const auto& entries = rows.entries;
  const std::size_t nnz = entries.size();
  auto site_of = [&entries](std::size_t k) {
    return static_cast<std::size_t>(entries[k].site);
  };
  std::vector<double> work(nnz);
  std::vector<int> job_of(nnz);
  for (int j = 0; j < n; ++j)
    for (std::size_t k : rows.indices(j)) {
      work[k] = problem.entry_workload(j, k);
      job_of[k] = j;
    }

  // Per-job proportional ideal completion time and the ceiling on the
  // speed fraction u the demand caps alone allow (u = 1 means the job
  // finishes in exactly W_j / A_j).
  std::vector<double> ideal(static_cast<std::size_t>(n), 0.0);
  std::vector<double> u_cap(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    double total = problem.total_work(j);
    double agg = aggregates[static_cast<std::size_t>(j)];
    if (total <= 0.0 || agg <= 0.0) continue;
    double t_ideal = total / agg;
    ideal[static_cast<std::size_t>(j)] = t_ideal;
    double cap = 1.0;
    for (std::size_t k : rows.indices(j)) {
      if (work[k] <= 0.0) continue;
      cap = std::min(cap, entries[k].value * t_ideal / work[k]);
    }
    u_cap[static_cast<std::size_t>(j)] = cap;
  }

  // Flow layout: 0 = source, 1..n jobs, n+1..n+m sites, last = sink.
  const int node_count = 2 + n + m;
  const flow::NodeId source = 0, sink = node_count - 1;
  auto job_node = [](int j) { return 1 + j; };
  auto site_node = [n](int s) { return 1 + n + s; };

  // Lower bound of entry k (job j) at speed fraction u: the rate that
  // finishes its work at this site by u · ideal.
  auto lower_of = [&](int j, std::size_t k, double u) {
    const double t = ideal[static_cast<std::size_t>(j)];
    if (work[k] <= 0.0 || t <= 0.0 || u <= 0.0) return 0.0;
    return std::min(entries[k].value, work[k] * u / t);
  };

  // Feasible realization of the aggregates with per-job guaranteed speed
  // fractions u[j] (rate at every worked site >= u[j] · ideal rate).
  auto solve_at = [&](const std::vector<double>& u)
      -> std::optional<std::vector<double>> {
    std::vector<flow::BoundedEdge> edges;
    edges.reserve(static_cast<std::size_t>(n) + nnz +
                  static_cast<std::size_t>(m));
    for (int j = 0; j < n; ++j) {
      double agg = aggregates[static_cast<std::size_t>(j)];
      edges.push_back({source, job_node(j), agg, agg});
      for (std::size_t k : rows.indices(j))
        edges.push_back({job_node(j), site_node(entries[k].site),
                         lower_of(j, k, u[static_cast<std::size_t>(j)]),
                         entries[k].value});
    }
    for (int s = 0; s < m; ++s)
      edges.push_back({site_node(s), sink, 0.0, problem.capacity(s)});
    return flow::feasible_flow_with_lower_bounds(node_count, edges, source,
                                                 sink, kEps);
  };

  // Shares per entry from a solve_at flow vector: per job, the source arc
  // then one arc per entry.
  auto extract = [&](const std::vector<double>& flows) {
    std::vector<double> x(nnz, 0.0);
    std::size_t idx = 0;
    for (int j = 0; j < n; ++j) {
      ++idx;  // source→job arc
      for (std::size_t k : rows.indices(j)) x[k] = std::max(0.0, flows[idx++]);
    }
    return x;
  };
  // Σ_j x over each site's entries, in ascending job order.
  auto site_sums = [&](const std::vector<double>& x) {
    std::vector<double> used(static_cast<std::size_t>(m), 0.0);
    for (std::size_t k = 0; k < nnz; ++k) used[site_of(k)] += x[k];
    return used;
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
      // costs a little optimality, never correctness). Off the entries a
      // share and its bounds are zero, so only entries carry arcs.
      const std::vector<double> x = extract(*best);
      const double tol = 1e-9 * problem.scale();
      auto lower_now = [&](int j, std::size_t k) {
        return lower_of(j, k, u_now[static_cast<std::size_t>(j)]);
      };

      // Reverse reachability to T (any site with slack) through the
      // residual digraph; nodes are jobs [0,n) and sites [n, n+m).
      auto node_of_site = [n](int s) { return n + s; };
      std::vector<std::vector<int>> radj(static_cast<std::size_t>(n + m));
      std::vector<std::vector<std::size_t>> site_entries(
          static_cast<std::size_t>(m));
      std::vector<char> reaches_T(static_cast<std::size_t>(n + m), 0);
      std::vector<int> stack;
      const std::vector<double> used = site_sums(x);
      for (int s = 0; s < m; ++s) {
        if (used[static_cast<std::size_t>(s)] < problem.capacity(s) - tol) {
          reaches_T[static_cast<std::size_t>(node_of_site(s))] = 1;
          stack.push_back(node_of_site(s));
        }
      }
      // radj holds reverse arcs: radj[v] = predecessors of v.
      for (std::size_t k = 0; k < nnz; ++k) {
        const int j = job_of[k];
        const int s = entries[k].site;
        site_entries[static_cast<std::size_t>(s)].push_back(k);
        if (x[k] < entries[k].value - tol)  // arc job→site
          radj[static_cast<std::size_t>(node_of_site(s))].push_back(j);
        if (x[k] > lower_now(j, k) + tol)  // arc site→job
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
        auto visit = [&](int v) {
          if (seen[static_cast<std::size_t>(v)]) return;
          seen[static_cast<std::size_t>(v)] = 1;
          bfs.push_back(v);
        };
        while (!bfs.empty()) {
          int v = bfs.back();
          bfs.pop_back();
          if (v == target) return true;
          if (v < n) {  // job node: arcs to sites it can absorb at
            for (std::size_t k : rows.indices(v))
              if (x[k] < entries[k].value - tol)
                visit(node_of_site(entries[k].site));
          } else {  // site node: arcs to jobs that can shed here
            for (std::size_t k : site_entries[static_cast<std::size_t>(v - n)])
              if (x[k] > lower_now(job_of[k], k) + tol) visit(job_of[k]);
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
        for (std::size_t k : rows.indices(j)) {
          if (!can_rise) break;
          if (work[k] <= 0.0) continue;
          if (x[k] > lower_now(j, k) + tol) continue;  // headroom here
          // Tight: x[j][s] must grow with the lower bound.
          const int s = entries[k].site;
          if (x[k] >= entries[k].value - tol) {
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

  flow::ShareRows shares = flow::ShareRows::zeros_on(rows);
  shares.values = extract(*best);
  std::vector<double>& x = shares.values;

  // Per-job refinement: each pass re-splits one job's aggregate optimally
  // against the current residual site capacities (closed form), walking
  // jobs from worst slowdown to best. Only helps where headroom exists,
  // but costs little and composes with the filling above.
  std::vector<double> residual(static_cast<std::size_t>(m));
  // Per-entry bounds and targets of the job being re-split.
  std::vector<double> upper(nnz), next(nnz);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    const std::vector<double> used = site_sums(x);
    for (int s = 0; s < m; ++s)
      residual[static_cast<std::size_t>(s)] = std::max(
          0.0, problem.capacity(s) - used[static_cast<std::size_t>(s)]);
    auto sd = slowdowns(problem, Allocation(shares, policy));
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return sd[static_cast<std::size_t>(a)] > sd[static_cast<std::size_t>(b)];
    });

    for (int j : order) {
      double agg = aggregates[static_cast<std::size_t>(j)];
      if (agg <= 0.0 || problem.total_work(j) <= 0.0) continue;
      const auto entries_of_j = rows.indices(j);

      // Upper bound per entry: demand cap, and current share plus
      // whatever the site has left over.
      double upper_total = 0.0;
      for (std::size_t k : entries_of_j) {
        upper[k] =
            std::min(entries[k].value, x[k] + residual[site_of(k)]);
        upper_total += upper[k];
      }
      if (upper_total < agg) continue;  // numeric slack; leave as is

      // Best completion time attainable within the bounds.
      double t_best = problem.total_work(j) / agg;
      for (std::size_t k : entries_of_j) {
        if (work[k] <= 0.0) continue;
        double u = upper[k];
        if (u <= 0.0) {
          t_best = kInf;
          break;
        }
        t_best = std::max(t_best, work[k] / u);
      }
      if (!std::isfinite(t_best)) continue;

      // Required rate per entry, then spread the leftover over headroom.
      double needed_total = 0.0;
      for (std::size_t k : entries_of_j) {
        double need = work[k] > 0.0 ? work[k] / t_best : 0.0;
        need = std::min(need, upper[k]);
        next[k] = need;
        needed_total += need;
      }
      double leftover = agg - needed_total;
      if (leftover < 0.0) continue;  // rounding; keep previous split
      for (std::size_t k : entries_of_j) {
        if (leftover <= 0.0) break;
        double take = std::min(upper[k] - next[k], leftover);
        next[k] += take;
        leftover -= take;
      }
      if (leftover > kEps * problem.scale()) continue;  // could not place all

      // Commit and update residuals.
      for (std::size_t k : entries_of_j) {
        double& r = residual[site_of(k)];
        r = std::max(0.0, r + (x[k] - next[k]));
        x[k] = next[k];
      }
    }
  }

  return Allocation(std::move(shares), policy);
}

}  // namespace amf::core
