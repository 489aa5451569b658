#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {

double row_max(const std::vector<double>& row) {
  double g = 0.0;
  for (double v : row) g = v > g ? v : g;
  return g;
}

/// Is every entry of row · g finite? (The lift's effective row of a job
/// whose dominant-share coefficient is g.)
bool finite_scaled(const std::vector<double>& row, double g) {
  for (double v : row)
    if (!std::isfinite(v * g)) return false;
  return true;
}

std::string effective_message(std::size_t job) {
  return "effective demands and workloads (raw value x profile max) must "
         "be finite (row " +
         std::to_string(job) + ")";
}

/// A delta's Leontief profile row: width R, finite, >= 0, not all zero.
void require_profile(const std::vector<double>& profile, std::size_t r) {
  AMF_REQUIRE(profile.size() == r,
              "delta profile row width != resource count");
  bool any = false;
  for (double p : profile) {
    AMF_REQUIRE(p >= 0.0 && std::isfinite(p),
                "profiles must be finite, >= 0");
    any = any || p > 0.0;
  }
  AMF_REQUIRE(any, "each job profile needs a positive entry");
}

}  // namespace

AllocationProblem::AllocationProblem(Matrix demands,
                                     std::vector<double> capacities,
                                     Matrix workloads,
                                     std::vector<double> weights)
    : demands_(std::move(demands)),
      capacities_(std::move(capacities)),
      workloads_(std::move(workloads)),
      weights_(std::move(weights)) {
  if (weights_.empty()) weights_.assign(demands_.size(), 1.0);
  validate();
}

AllocationProblem AllocationProblem::multi(Matrix demands,
                                           Matrix capacity_matrix,
                                           Matrix profiles, Matrix workloads,
                                           std::vector<double> weights) {
  AllocationProblem p;
  p.demands_ = std::move(demands);
  p.workloads_ = std::move(workloads);
  p.weights_ = std::move(weights);
  p.capacity_matrix_ = std::move(capacity_matrix);
  p.profiles_ = std::move(profiles);
  AMF_REQUIRE(!p.capacity_matrix_.empty(), "problem needs at least one site");
  AMF_REQUIRE(!p.capacity_matrix_.front().empty(),
              "capacity rows need at least one resource");
  if (p.profiles_.empty())
    p.profiles_.assign(
        p.demands_.size(),
        std::vector<double>(p.capacity_matrix_.front().size(), 1.0));
  if (p.weights_.empty()) p.weights_.assign(p.demands_.size(), 1.0);
  p.validate();
  p.rebuild_effective();
  return p;
}

void AllocationProblem::validate() {
  if (multi_resource()) {
    // Every violation names its row, so a caller assembling an instance
    // from external data can point at the offending input line.
    auto at = [](const std::string& what, std::size_t row) {
      return what + " (row " + std::to_string(row) + ")";
    };
    const auto n = demands_.size();
    const auto m = capacity_matrix_.size();
    const auto r = capacity_matrix_.front().size();
    for (std::size_t s = 0; s < m; ++s) {
      AMF_REQUIRE(capacity_matrix_[s].size() == r,
                  at("ragged capacity matrix: row width " +
                         std::to_string(capacity_matrix_[s].size()) +
                         " != resource count " + std::to_string(r),
                     s));
      for (double c : capacity_matrix_[s])
        AMF_REQUIRE(c >= 0.0 && std::isfinite(c),
                    at("capacities must be finite, >= 0", s));
    }
    AMF_REQUIRE(profiles_.size() == n,
                "profile matrix height " + std::to_string(profiles_.size()) +
                    " != job count " + std::to_string(n));
    for (std::size_t j = 0; j < n; ++j) {
      AMF_REQUIRE(profiles_[j].size() == r,
                  at("ragged profile matrix: row width " +
                         std::to_string(profiles_[j].size()) +
                         " != resource count " + std::to_string(r),
                     j));
      bool any = false;
      for (double p : profiles_[j]) {
        AMF_REQUIRE(p >= 0.0 && std::isfinite(p),
                    at("profiles must be finite, >= 0", j));
        any = any || p > 0.0;
      }
      AMF_REQUIRE(any, at("each job profile needs a positive entry "
                          "(all-zero profile)",
                          j));
    }
    for (std::size_t j = 0; j < n; ++j) {
      AMF_REQUIRE(demands_[j].size() == m,
                  at("ragged demand matrix: row width " +
                         std::to_string(demands_[j].size()) +
                         " != site count " + std::to_string(m),
                     j));
      for (double d : demands_[j])
        AMF_REQUIRE(d >= 0.0 && std::isfinite(d),
                    at("demands must be finite, >= 0", j));
      AMF_REQUIRE(finite_scaled(demands_[j], row_max(profiles_[j])),
                  effective_message(j));
    }
    if (!workloads_.empty()) {
      AMF_REQUIRE(workloads_.size() == n, "workload matrix height != job count");
      for (std::size_t j = 0; j < n; ++j) {
        AMF_REQUIRE(workloads_[j].size() == m,
                    at("ragged workload matrix: row width " +
                           std::to_string(workloads_[j].size()) +
                           " != site count " + std::to_string(m),
                       j));
        for (std::size_t s = 0; s < m; ++s) {
          double w = workloads_[j][s];
          AMF_REQUIRE(w >= 0.0 && std::isfinite(w),
                      at("workloads must be finite, >= 0", j));
          AMF_REQUIRE(w == 0.0 || demands_[j][s] > 0.0,
                      at("positive workload requires positive demand cap",
                         j));
        }
        AMF_REQUIRE(finite_scaled(workloads_[j], row_max(profiles_[j])),
                    effective_message(j));
      }
    }
    AMF_REQUIRE(weights_.size() == n, "weight vector length != job count");
    for (std::size_t j = 0; j < n; ++j)
      AMF_REQUIRE(weights_[j] > 0.0 && std::isfinite(weights_[j]),
                  at("weights must be finite, > 0", j));
    return;
  }
  AMF_REQUIRE(!capacities_.empty(), "problem needs at least one site");
  const auto n = demands_.size();
  const auto m = capacities_.size();
  for (double c : capacities_)
    AMF_REQUIRE(c >= 0.0 && std::isfinite(c), "capacities must be finite, >= 0");
  // The demand scan also builds the sparse index: no second pass over the
  // dense matrix.
  demand_rows_ = flow::DemandRows::from_dense(demands_, static_cast<int>(m));
  if (!workloads_.empty()) {
    // Each workload row is checked branch-free, and its positive entries
    // are matched against the row's sparse demands, not the dense ones:
    // every nonzero workload must sit on an indexed (positive) demand.
    constexpr double kMax = std::numeric_limits<double>::max();
    AMF_REQUIRE(workloads_.size() == n, "workload matrix height != job count");
    for (std::size_t j = 0; j < n; ++j) {
      const auto& row = workloads_[j];
      AMF_REQUIRE(row.size() == m, "workload matrix width != site count");
      bool finite = true;
      std::size_t nonzero = 0;
      for (double w : row) {
        finite &= (w >= 0.0) & (w <= kMax);
        nonzero += w != 0.0 ? 1 : 0;
      }
      AMF_REQUIRE(finite, "workloads must be finite, >= 0");
      std::size_t capped = 0;
      for (const auto& [s, d] : demand_rows_.row(static_cast<int>(j)))
        capped += row[static_cast<std::size_t>(s)] != 0.0 ? 1 : 0;
      AMF_REQUIRE(capped == nonzero,
                  "positive workload requires positive demand cap");
    }
  }
  AMF_REQUIRE(weights_.size() == n, "weight vector length != job count");
  for (double w : weights_)
    AMF_REQUIRE(w > 0.0 && std::isfinite(w), "weights must be finite, > 0");
}

void AllocationProblem::rebuild_effective() {
  const auto n = demands_.size();
  const auto m = capacity_matrix_.size();
  capacities_.resize(m);
  for (std::size_t s = 0; s < m; ++s)
    capacities_[s] = flow::binding_min(capacity_matrix_[s]);
  gammas_.resize(n);
  eff_demands_.resize(n);
  eff_workloads_.resize(workloads_.size());
  demand_rows_.first.reserve(n + 1);
  for (std::size_t j = 0; j < n; ++j) {
    refresh_job_effective(j);
    demand_rows_.append_row(eff_demands_[j]);
  }
}

void AllocationProblem::refresh_job_effective(std::size_t job) {
  const double g = row_max(profiles_[job]);
  gammas_[job] = g;
  const auto& d = demands_[job];
  auto& ed = eff_demands_[job];
  ed.resize(d.size());
  for (std::size_t s = 0; s < d.size(); ++s) ed[s] = d[s] * g;
  if (!workloads_.empty()) {
    const auto& w = workloads_[job];
    auto& ew = eff_workloads_[job];
    ew.resize(w.size());
    for (std::size_t s = 0; s < w.size(); ++s) ew[s] = w[s] * g;
  }
}

double AllocationProblem::demand(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  return demands()[static_cast<std::size_t>(job)]
                  [static_cast<std::size_t>(site)];
}

double AllocationProblem::workload(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  if (workloads_.empty()) return 0.0;
  return workloads()[static_cast<std::size_t>(job)]
                    [static_cast<std::size_t>(site)];
}

double AllocationProblem::task_demand(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  return demands_[static_cast<std::size_t>(job)]
                 [static_cast<std::size_t>(site)];
}

double AllocationProblem::task_workload(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  if (workloads_.empty()) return 0.0;
  return workloads_[static_cast<std::size_t>(job)]
                   [static_cast<std::size_t>(site)];
}

double AllocationProblem::capacity(int site) const {
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  return capacities_[static_cast<std::size_t>(site)];
}

double AllocationProblem::capacity(int site, int resource) const {
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  AMF_REQUIRE(resource >= 0 && resource < resources(),
              "resource index out of range");
  if (!multi_resource()) return capacities_[static_cast<std::size_t>(site)];
  return capacity_matrix_[static_cast<std::size_t>(site)]
                         [static_cast<std::size_t>(resource)];
}

double AllocationProblem::profile(int job, int resource) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(resource >= 0 && resource < resources(),
              "resource index out of range");
  if (!multi_resource()) return 1.0;
  return profiles_[static_cast<std::size_t>(job)]
                  [static_cast<std::size_t>(resource)];
}

double AllocationProblem::gamma(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  if (!multi_resource()) return 1.0;
  return gammas_[static_cast<std::size_t>(job)];
}

double AllocationProblem::weight(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  return weights_[static_cast<std::size_t>(job)];
}

double AllocationProblem::solo_ceiling(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  // Zero demands would add exactly 0.0; the positive ones are added in
  // ascending site order, as a dense row scan would.
  double total = 0.0;
  for (const auto& [s, d] : demand_rows_.row(job))
    total += std::min(d, capacities_[static_cast<std::size_t>(s)]);
  return total;
}

double AllocationProblem::total_work(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  if (workloads_.empty()) return 0.0;
  const auto& row = workloads()[static_cast<std::size_t>(job)];
  return std::accumulate(row.begin(), row.end(), 0.0);
}

double AllocationProblem::total_capacity() const {
  return std::accumulate(capacities_.begin(), capacities_.end(), 0.0);
}

double AllocationProblem::scale() const {
  double s = 1.0;
  for (double c : capacities_) s = std::max(s, c);
  for (const auto& e : demand_rows_.entries) s = std::max(s, e.value);
  return s;
}

double AllocationProblem::split_share(std::size_t job,
                                      double weight_total) const {
  // As in solo_ceiling(), skipping the zero demands changes no bit.
  const double w = weights_[job];
  double share = 0.0;
  for (const auto& [s, d] : demand_rows_.row(static_cast<int>(job)))
    share += std::min(d, capacities_[static_cast<std::size_t>(s)] * w /
                             weight_total);
  return share;
}

double AllocationProblem::equal_split_share(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  return split_share(static_cast<std::size_t>(job),
                     std::accumulate(weights_.begin(), weights_.end(), 0.0));
}

std::vector<double> AllocationProblem::equal_split_shares() const {
  const double weight_total =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  std::vector<double> shares(weights_.size());
  for (std::size_t j = 0; j < shares.size(); ++j)
    shares[j] = split_share(j, weight_total);
  return shares;
}

AllocationProblem AllocationProblem::with_reported_demands(
    int job, const std::vector<double>& reported) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(static_cast<int>(reported.size()) == sites(),
              "reported demand vector length != site count");
  Matrix d = demands_;
  d[static_cast<std::size_t>(job)] = reported;
  // Workloads describe true work; a misreport does not change them, but a
  // reported zero demand where true work exists would fail validation, so
  // the probe copy drops workload information.
  if (multi_resource())
    return AllocationProblem::multi(std::move(d), capacity_matrix_, profiles_,
                                    {}, weights_);
  return AllocationProblem(std::move(d), capacities_, {}, weights_);
}

AllocationProblem AllocationProblem::subset(
    const std::vector<int>& job_indices) const {
  Matrix d, w, p;
  std::vector<double> wt;
  d.reserve(job_indices.size());
  wt.reserve(job_indices.size());
  for (int j : job_indices) {
    AMF_REQUIRE(j >= 0 && j < jobs(), "job index out of range");
    d.push_back(demands_[static_cast<std::size_t>(j)]);
    if (!workloads_.empty())
      w.push_back(workloads_[static_cast<std::size_t>(j)]);
    if (multi_resource()) p.push_back(profiles_[static_cast<std::size_t>(j)]);
    wt.push_back(weights_[static_cast<std::size_t>(j)]);
  }
  if (multi_resource())
    return AllocationProblem::multi(std::move(d), capacity_matrix_,
                                    std::move(p), std::move(w), std::move(wt));
  return AllocationProblem(std::move(d), capacities_, std::move(w),
                           std::move(wt));
}

ProblemDelta ProblemDelta::job_arrived(std::vector<double> demands,
                                       std::vector<double> workloads,
                                       double weight,
                                       std::vector<double> ceiling,
                                       std::vector<double> profile) {
  ProblemDelta d;
  d.kind = Kind::kJobArrived;
  d.demand_row = std::move(demands);
  d.workload_row = std::move(workloads);
  d.demand_ceiling = std::move(ceiling);
  d.profile_row = std::move(profile);
  d.weight = weight;
  return d;
}

ProblemDelta ProblemDelta::job_departed(int job) {
  ProblemDelta d;
  d.kind = Kind::kJobDeparted;
  d.job = job;
  return d;
}

ProblemDelta ProblemDelta::site_capacity(int site, double value) {
  ProblemDelta d;
  d.kind = Kind::kSiteCapacity;
  d.site = site;
  d.value = value;
  return d;
}

ProblemDelta ProblemDelta::demand_set(int job, int site, double value) {
  ProblemDelta d;
  d.kind = Kind::kDemandSet;
  d.job = job;
  d.site = site;
  d.value = value;
  return d;
}

ProblemDelta ProblemDelta::workload_set(int job, int site, double value) {
  ProblemDelta d;
  d.kind = Kind::kWorkloadSet;
  d.job = job;
  d.site = site;
  d.value = value;
  return d;
}

ProblemDelta ProblemDelta::set_capacity_vec(int site,
                                            std::vector<double> row) {
  ProblemDelta d;
  d.kind = Kind::kCapacityVec;
  d.site = site;
  d.capacity_row = std::move(row);
  return d;
}

ProblemDelta ProblemDelta::set_profile(int job, std::vector<double> row) {
  ProblemDelta d;
  d.kind = Kind::kProfileSet;
  d.job = job;
  d.profile_row = std::move(row);
  return d;
}

AllocationProblem AllocationProblem::apply(const ProblemDelta& delta) const& {
  AllocationProblem copy = *this;
  return std::move(copy).apply(delta);
}

AllocationProblem AllocationProblem::apply(const ProblemDelta& delta) && {
  // The instance was valid on entry; each branch re-validates exactly the
  // entries it touches, so the result is valid without an O(n·m) pass.
  const auto m = capacities_.size();
  switch (delta.kind) {
    case ProblemDelta::Kind::kJobArrived: {
      AMF_REQUIRE(delta.demand_row.size() == m,
                  "delta demand row width != site count");
      for (double d : delta.demand_row)
        AMF_REQUIRE(d >= 0.0 && std::isfinite(d),
                    "demands must be finite, >= 0");
      AMF_REQUIRE(delta.weight > 0.0 && std::isfinite(delta.weight),
                  "weights must be finite, > 0");
      // Everything is checked before the first mutation, so a rejected
      // delta leaves this instance as it was.
      std::vector<double> profile;
      if (multi_resource()) {
        profile = delta.profile_row;
        if (profile.empty())
          profile.assign(static_cast<std::size_t>(resources()), 1.0);
        require_profile(profile, static_cast<std::size_t>(resources()));
        const double g = row_max(profile);
        AMF_REQUIRE(finite_scaled(delta.demand_row, g) &&
                        finite_scaled(delta.workload_row, g),
                    effective_message(demands_.size()));
      } else {
        AMF_REQUIRE(delta.profile_row.empty(),
                    "profile row on a single-resource problem");
      }
      const bool track_work = !workloads_.empty() || demands_.empty();
      if (!delta.workload_row.empty()) {
        AMF_REQUIRE(delta.workload_row.size() == m,
                    "delta workload row width != site count");
        AMF_REQUIRE(track_work,
                    "workload row for a problem without workloads");
        for (std::size_t s = 0; s < m; ++s) {
          double w = delta.workload_row[s];
          AMF_REQUIRE(w >= 0.0 && std::isfinite(w),
                      "workloads must be finite, >= 0");
          AMF_REQUIRE(w == 0.0 || delta.demand_row[s] > 0.0,
                      "positive workload requires positive demand cap");
        }
        workloads_.push_back(delta.workload_row);
      } else if (!workloads_.empty()) {
        workloads_.emplace_back(m, 0.0);
      }
      if (multi_resource()) {
        profiles_.push_back(std::move(profile));
        demands_.push_back(delta.demand_row);
        weights_.push_back(delta.weight);
        gammas_.push_back(0.0);
        eff_demands_.emplace_back();
        if (!workloads_.empty()) eff_workloads_.emplace_back();
        refresh_job_effective(demands_.size() - 1);
        demand_rows_.append_row(eff_demands_.back());
        break;
      }
      demands_.push_back(delta.demand_row);
      weights_.push_back(delta.weight);
      demand_rows_.append_row(delta.demand_row);
      break;
    }
    case ProblemDelta::Kind::kJobDeparted: {
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      const auto j = static_cast<std::size_t>(delta.job);
      demands_.erase(demands_.begin() + static_cast<std::ptrdiff_t>(j));
      if (!workloads_.empty())
        workloads_.erase(workloads_.begin() + static_cast<std::ptrdiff_t>(j));
      weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(j));
      demand_rows_.erase_row(delta.job);
      if (multi_resource()) {
        profiles_.erase(profiles_.begin() + static_cast<std::ptrdiff_t>(j));
        gammas_.erase(gammas_.begin() + static_cast<std::ptrdiff_t>(j));
        eff_demands_.erase(eff_demands_.begin() +
                           static_cast<std::ptrdiff_t>(j));
        if (!eff_workloads_.empty())
          eff_workloads_.erase(eff_workloads_.begin() +
                               static_cast<std::ptrdiff_t>(j));
      }
      break;
    }
    case ProblemDelta::Kind::kSiteCapacity: {
      AMF_REQUIRE(!multi_resource(),
                  "scalar capacity delta on a multi-resource problem "
                  "(use set_capacity_vec)");
      AMF_REQUIRE(delta.site >= 0 && delta.site < sites(),
                  "delta site index out of range");
      AMF_REQUIRE(delta.value >= 0.0 && std::isfinite(delta.value),
                  "capacities must be finite, >= 0");
      capacities_[static_cast<std::size_t>(delta.site)] = delta.value;
      break;
    }
    case ProblemDelta::Kind::kCapacityVec: {
      AMF_REQUIRE(delta.site >= 0 && delta.site < sites(),
                  "delta site index out of range");
      AMF_REQUIRE(delta.capacity_row.size() ==
                      static_cast<std::size_t>(resources()),
                  "delta capacity row width != resource count");
      for (double c : delta.capacity_row)
        AMF_REQUIRE(c >= 0.0 && std::isfinite(c),
                    "capacities must be finite, >= 0");
      const auto s = static_cast<std::size_t>(delta.site);
      if (multi_resource()) {
        capacity_matrix_[s] = delta.capacity_row;
        capacities_[s] = flow::binding_min(capacity_matrix_[s]);
      } else {
        capacities_[s] = delta.capacity_row.front();
      }
      break;
    }
    case ProblemDelta::Kind::kDemandSet: {
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      AMF_REQUIRE(delta.site >= 0 && delta.site < sites(),
                  "delta site index out of range");
      AMF_REQUIRE(delta.value >= 0.0 && std::isfinite(delta.value),
                  "demands must be finite, >= 0");
      AMF_REQUIRE(delta.value > 0.0 || workloads_.empty() ||
                      workloads_[static_cast<std::size_t>(delta.job)]
                                [static_cast<std::size_t>(delta.site)] == 0.0,
                  "positive workload requires positive demand cap");
      AMF_REQUIRE(!multi_resource() ||
                      std::isfinite(
                          delta.value *
                          gammas_[static_cast<std::size_t>(delta.job)]),
                  effective_message(static_cast<std::size_t>(delta.job)));
      demands_[static_cast<std::size_t>(delta.job)]
              [static_cast<std::size_t>(delta.site)] = delta.value;
      double effective = delta.value;
      if (multi_resource()) {
        effective = delta.value * gammas_[static_cast<std::size_t>(delta.job)];
        eff_demands_[static_cast<std::size_t>(delta.job)]
                    [static_cast<std::size_t>(delta.site)] = effective;
      }
      demand_rows_.set(delta.job, delta.site, effective);
      break;
    }
    case ProblemDelta::Kind::kWorkloadSet: {
      AMF_REQUIRE(!workloads_.empty(),
                  "workload delta on a problem without workloads");
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      AMF_REQUIRE(delta.site >= 0 && delta.site < sites(),
                  "delta site index out of range");
      AMF_REQUIRE(delta.value >= 0.0 && std::isfinite(delta.value),
                  "workloads must be finite, >= 0");
      AMF_REQUIRE(delta.value == 0.0 ||
                      demands_[static_cast<std::size_t>(delta.job)]
                              [static_cast<std::size_t>(delta.site)] > 0.0,
                  "positive workload requires positive demand cap");
      AMF_REQUIRE(!multi_resource() ||
                      std::isfinite(
                          delta.value *
                          gammas_[static_cast<std::size_t>(delta.job)]),
                  effective_message(static_cast<std::size_t>(delta.job)));
      workloads_[static_cast<std::size_t>(delta.job)]
                [static_cast<std::size_t>(delta.site)] = delta.value;
      if (multi_resource())
        eff_workloads_[static_cast<std::size_t>(delta.job)]
                      [static_cast<std::size_t>(delta.site)] =
            delta.value * gammas_[static_cast<std::size_t>(delta.job)];
      break;
    }
    case ProblemDelta::Kind::kProfileSet: {
      AMF_REQUIRE(multi_resource(),
                  "profile delta on a single-resource problem");
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      require_profile(delta.profile_row,
                      static_cast<std::size_t>(resources()));
      const auto j = static_cast<std::size_t>(delta.job);
      const double g = row_max(delta.profile_row);
      AMF_REQUIRE(finite_scaled(demands_[j], g) &&
                      (workloads_.empty() || finite_scaled(workloads_[j], g)),
                  effective_message(j));
      profiles_[static_cast<std::size_t>(delta.job)] = delta.profile_row;
      refresh_job_effective(static_cast<std::size_t>(delta.job));
      demand_rows_.assign_row(
          delta.job, eff_demands_[static_cast<std::size_t>(delta.job)]);
      break;
    }
  }
  return std::move(*this);
}

void AllocationProblem::save(std::ostream& out) const {
  using util::CsvWriter;
  auto emit_row = [&out](const std::vector<double>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << CsvWriter::format(row[i]);
    }
    out << '\n';
  };
  if (multi_resource()) {
    out << jobs() << ',' << sites() << ',' << (has_workloads() ? 1 : 0) << ','
        << resources() << '\n';
    for (const auto& row : demands_) emit_row(row);
    for (const auto& row : capacity_matrix_) emit_row(row);
    for (const auto& row : profiles_) emit_row(row);
    if (has_workloads())
      for (const auto& row : workloads_) emit_row(row);
    emit_row(weights_);
    return;
  }
  out << jobs() << ',' << sites() << ',' << (has_workloads() ? 1 : 0) << '\n';
  for (const auto& row : demands_) emit_row(row);
  emit_row(capacities_);
  if (has_workloads())
    for (const auto& row : workloads_) emit_row(row);
  emit_row(weights_);
}

AllocationProblem AllocationProblem::load(std::istream& in) {
  auto read_line = [&in] {
    std::string line;
    AMF_REQUIRE(static_cast<bool>(std::getline(in, line)),
                "truncated problem file");
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) row.push_back(std::stod(cell));
    return row;
  };
  auto read_row = [&read_line](std::size_t expected) {
    std::vector<double> row = read_line();
    AMF_REQUIRE(row.size() == expected, "problem file row width mismatch");
    return row;
  };
  auto header = read_line();
  AMF_REQUIRE(header.size() == 3 || header.size() == 4,
              "problem file row width mismatch");
  auto n = static_cast<std::size_t>(header[0]);
  auto m = static_cast<std::size_t>(header[1]);
  bool has_work = header[2] != 0.0;
  Matrix d(n), w;
  for (auto& row : d) row = read_row(m);
  if (header.size() == 4) {
    auto r = static_cast<std::size_t>(header[3]);
    AMF_REQUIRE(r >= 1, "problem file needs at least one resource");
    Matrix caps(m), profiles(n);
    for (auto& row : caps) row = read_row(r);
    for (auto& row : profiles) row = read_row(r);
    if (has_work) {
      w.resize(n);
      for (auto& row : w) row = read_row(m);
    }
    std::vector<double> weights = read_row(n);
    return AllocationProblem::multi(std::move(d), std::move(caps),
                                    std::move(profiles), std::move(w),
                                    std::move(weights));
  }
  std::vector<double> caps = read_row(m);
  if (has_work) {
    w.resize(n);
    for (auto& row : w) row = read_row(m);
  }
  std::vector<double> weights = read_row(n);
  return AllocationProblem(std::move(d), std::move(caps), std::move(w),
                           std::move(weights));
}

}  // namespace amf::core
