#include "core/workspace.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {

struct WorkspaceCounters {
  obs::Counter primes;
  obs::Counter deltas;
  obs::Counter invalidations;
  WorkspaceCounters() {
    auto& reg = obs::Registry::global();
    primes = reg.counter("amf_core_ws_prime",
                         "workspace network builds from scratch");
    deltas = reg.counter("amf_core_ws_deltas",
                         "problem deltas applied to a primed workspace");
    invalidations = reg.counter(
        "amf_core_ws_invalidate",
        "primed workspaces dropped (forcing a rebuild on next allocate)");
  }
};

WorkspaceCounters& ws_counters() {
  static WorkspaceCounters counters;
  return counters;
}

}  // namespace

void SolverWorkspace::prime(const AllocationProblem& problem,
                            const flow::DemandRows* arc_ceilings) {
  AMF_SPAN_ARG("core/ws_prime", "jobs", problem.jobs());
  ws_counters().primes.add(1);
  const int n = problem.jobs();
  if (arc_ceilings != nullptr)
    AMF_REQUIRE(arc_ceilings->rows() == n, "arc ceiling height != job count");
  transport_.emplace(problem.capacities());
  rows_.clear();
  rows_.reserve(static_cast<std::size_t>(n));
  gammas_.clear();
  gammas_.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) gammas_.push_back(problem.gamma(j));
  const flow::DemandRows& arcs =
      arc_ceilings != nullptr ? *arc_ceilings : problem.demands();
  std::vector<int> sites;
  std::vector<double> demands;
  for (int j = 0; j < n; ++j) {
    // Arcs on the reserving row's entries, carrying today's demand there.
    sites.clear();
    demands.clear();
    for (const auto& [s, c] : arcs.row(j)) {
      sites.push_back(s);
      demands.push_back(problem.demands().at(j, s));
    }
    const auto positive = std::count_if(demands.begin(), demands.end(),
                                        [](double d) { return d > 0.0; });
    AMF_REQUIRE(static_cast<std::size_t>(positive) ==
                    problem.demands().row(j).size(),
                "arc ceilings must cover every positive demand");
    rows_.push_back(transport_->add_job(sites, demands));
  }
  transport_->set_active(rows_);
}

void SolverWorkspace::apply(const ProblemDelta& delta) {
  if (!primed()) return;
  ws_counters().deltas.add(1);
  switch (delta.kind) {
    case ProblemDelta::Kind::kJobArrived: {
      const int m = transport_->sites();
      AMF_REQUIRE(static_cast<int>(delta.demand_row.size()) == m,
                  "delta demand row width != site count");
      // The network speaks dominant units: the arrival's demand row is
      // scaled by its profile's γ (1.0 when no profile rides along).
      double gamma = 1.0;
      if (!delta.profile_row.empty()) {
        gamma = 0.0;
        for (double p : delta.profile_row) gamma = p > gamma ? p : gamma;
      }
      std::vector<int> sites;
      std::vector<double> demands;
      for (int s = 0; s < m; ++s) {
        double d = delta.demand_row[static_cast<std::size_t>(s)];
        double reserve =
            delta.demand_ceiling.empty()
                ? d
                : std::max(delta.demand_ceiling[static_cast<std::size_t>(s)],
                           d);
        if (reserve > 0.0) {
          sites.push_back(s);
          demands.push_back(d * gamma);
        }
      }
      rows_.push_back(transport_->add_job(sites, demands));
      gammas_.push_back(gamma);
      transport_->set_active(rows_);
      break;
    }
    case ProblemDelta::Kind::kJobDeparted: {
      AMF_REQUIRE(delta.job >= 0 &&
                      delta.job < static_cast<int>(rows_.size()),
                  "delta job index out of range");
      transport_->remove_job(rows_[static_cast<std::size_t>(delta.job)]);
      rows_.erase(rows_.begin() + delta.job);
      gammas_.erase(gammas_.begin() + delta.job);
      transport_->set_active(rows_);
      break;
    }
    case ProblemDelta::Kind::kSiteCapacity:
      transport_->set_site_capacity(delta.site, delta.value);
      break;
    case ProblemDelta::Kind::kCapacityVec:
      transport_->set_site_capacity(delta.site,
                                    flow::binding_min(delta.capacity_row));
      break;
    case ProblemDelta::Kind::kDemandSet: {
      AMF_REQUIRE(delta.job >= 0 &&
                      delta.job < static_cast<int>(rows_.size()),
                  "delta job index out of range");
      const double value =
          delta.value * gammas_[static_cast<std::size_t>(delta.job)];
      if (!transport_->set_demand(rows_[static_cast<std::size_t>(delta.job)],
                                  delta.site, value)) {
        // A positive demand on an arc the topology never reserved: the
        // persistent network cannot represent it. Fall back to a rebuild
        // at the next allocate instead of surfacing an error.
        invalidate();
      }
      break;
    }
    case ProblemDelta::Kind::kProfileSet:
      // A new γ rescales every arc of the row; rebuilding at the next
      // allocate is simpler than replaying the whole demand row here,
      // and profile changes are rare (a job's shape, not its demand).
      invalidate();
      break;
    case ProblemDelta::Kind::kWorkloadSet:
      break;  // workloads are invisible to the flow network
  }
}

void SolverWorkspace::invalidate() {
  if (primed()) ws_counters().invalidations.add(1);
  transport_.reset();
  rows_.clear();
  gammas_.clear();
}

void SolverWorkspace::maybe_compact() {
  if (!primed()) return;
  // Masked rows cost O(1) per Dinic BFS phase each, every solve, so they
  // are expelled eagerly: compacting once they are a quarter of the rows
  // the network holds still amortizes to O(1) rebuild work per departure
  // while keeping the network near its live size. Rows compacted away
  // earlier no longer count; their ids stay dead in total_rows().
  const int masked = transport_->masked_rows();
  const int held = transport_->live_rows() + masked;
  if (held >= 16 && masked * 4 >= held) transport_->compact();
}

}  // namespace amf::core
