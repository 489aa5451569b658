#include "core/problem.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
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

std::string at_row(const std::string& what, std::size_t row) {
  return what + " (row " + std::to_string(row) + ")";
}

/// Checks a row's width; the message names the matrix and the row.
void require_width(const std::vector<double>& row, std::size_t width,
                   const char* matrix, const char* unit, std::size_t index) {
  AMF_REQUIRE(row.size() == width,
              at_row(std::string("ragged ") + matrix +
                         " matrix: row width " + std::to_string(row.size()) +
                         " != " + unit + " count " + std::to_string(width),
                     index));
}

std::string effective_message(std::size_t job) {
  return at_row("effective demands and workloads (raw value x profile max) "
                "must be finite",
                job);
}

/// A Leontief profile row: width R, finite, >= 0, not all zero.
void require_profile(const std::vector<double>& profile, std::size_t r,
                     std::size_t job) {
  require_width(profile, r, "profile", "resource", job);
  for (double p : profile)
    AMF_REQUIRE(p >= 0.0 && std::isfinite(p),
                at_row("profiles must be finite, >= 0", job));
  AMF_REQUIRE(row_max(profile) > 0.0,
              at_row("each job profile needs a positive entry (all-zero "
                     "profile)",
                     job));
}

}  // namespace

AllocationProblem AllocationProblem::with_sites(
    std::vector<double> capacities) {
  AMF_REQUIRE(!capacities.empty(), "problem needs at least one site");
  for (double c : capacities)
    AMF_REQUIRE(c >= 0.0 && std::isfinite(c),
                "capacities must be finite, >= 0");
  AllocationProblem p;
  p.demands_.width = static_cast<int>(capacities.size());
  p.capacities_ = std::move(capacities);
  return p;
}

AllocationProblem AllocationProblem::with_site_matrix(Matrix capacity_matrix) {
  AMF_REQUIRE(!capacity_matrix.empty(), "problem needs at least one site");
  AMF_REQUIRE(!capacity_matrix.front().empty(),
              "capacity rows need at least one resource");
  AllocationProblem p;
  for (std::size_t s = 0; s < capacity_matrix.size(); ++s) {
    require_width(capacity_matrix[s], capacity_matrix.front().size(),
                  "capacity", "resource", s);
    for (double c : capacity_matrix[s])
      AMF_REQUIRE(c >= 0.0 && std::isfinite(c),
                  at_row("capacities must be finite, >= 0", s));
    p.capacities_.push_back(flow::binding_min(capacity_matrix[s]));
  }
  p.demands_.width = static_cast<int>(capacity_matrix.size());
  p.capacity_matrix_ = std::move(capacity_matrix);
  return p;
}

AllocationProblem AllocationProblem::without_jobs() const {
  return multi_resource() ? with_site_matrix(capacity_matrix_)
                          : with_sites(capacities_);
}

void AllocationProblem::feed_rows(const Matrix& demands,
                                  const Matrix& workloads,
                                  const std::vector<double>& weights,
                                  const Matrix& profiles) {
  const auto n = demands.size();
  AMF_REQUIRE(workloads.empty() || workloads.size() == n,
              "workload matrix height != job count");
  AMF_REQUIRE(weights.empty() || weights.size() == n,
              "weight vector length != job count");
  AMF_REQUIRE(profiles.empty() || profiles.size() == n,
              "profile matrix height " + std::to_string(profiles.size()) +
                  " != job count " + std::to_string(n));
  for (std::size_t j = 0; j < n; ++j) {
    // A present workload matrix has a row per job; an empty row is none.
    if (!workloads.empty())
      require_width(workloads[j], capacities_.size(), "workload", "site", j);
    append_job(demands[j], workloads.empty() ? Row{} : workloads[j],
               weights.empty() ? 1.0 : weights[j],
               profiles.empty() ? Row{} : profiles[j]);
  }
}

AllocationProblem::AllocationProblem(const Matrix& demands,
                                     std::vector<double> capacities,
                                     const Matrix& workloads,
                                     std::vector<double> weights)
    : AllocationProblem(with_sites(std::move(capacities))) {
  feed_rows(demands, workloads, weights, {});
}

AllocationProblem AllocationProblem::multi(const Matrix& demands,
                                           Matrix capacity_matrix,
                                           const Matrix& profiles,
                                           const Matrix& workloads,
                                           std::vector<double> weights) {
  AllocationProblem p = with_site_matrix(std::move(capacity_matrix));
  p.feed_rows(demands, workloads, weights, profiles);
  return p;
}

void AllocationProblem::append_job(const Row& demands, const Row& workloads,
                                   double weight, Row profile) {
  // A raw demand d enters the index as d · γ, where that is positive: a d
  // so tiny that d · γ underflows to zero is zero, as the flow sees it.
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr std::uint64_t kInfBits = 0x7FF0000000000000;
  constexpr std::uint64_t kNegZeroBits = 0x8000000000000000;
  const auto j = static_cast<std::size_t>(jobs());
  const auto m = capacities_.size();
  require_width(demands, m, "demand", "site", j);
  AMF_REQUIRE(weight > 0.0 && std::isfinite(weight),
              at_row("weights must be finite, > 0", j));
  double g = 1.0;
  if (multi_resource()) {
    if (profile.empty()) profile.assign(capacity_matrix_.front().size(), 1.0);
    require_profile(profile, capacity_matrix_.front().size(), j);
    g = row_max(profile);
  } else {
    AMF_REQUIRE(profile.empty(), "profile row on a single-resource problem");
  }
  // Branch-free scans validate the row before the first mutation, so a
  // rejected row leaves the instance as it was. A value is finite and
  // >= 0 iff its bits lie below those of +inf or it is -0.0; an effective
  // value (times γ) can only overflow when γ != 1.
  auto valid = [](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return static_cast<unsigned>((bits < kInfBits) | (bits == kNegZeroBits));
  };
  auto effective = [g](const Row& row) {
    unsigned ok = 1;
    if (g != 1.0)
      for (double v : row) ok &= static_cast<unsigned>(v * g <= kMax);
    return ok != 0;
  };
  unsigned finite = 1;
  for (double d : demands) finite &= valid(d);
  AMF_REQUIRE(finite, at_row("demands must be finite, >= 0", j));
  AMF_REQUIRE(effective(demands), effective_message(j));
  const bool work = j == 0 ? !workloads.empty() : has_work_;
  if (!workloads.empty()) {
    require_width(workloads, m, "workload", "site", j);
    AMF_REQUIRE(work, "workload row for a problem without workloads");
    unsigned capped = 1;
    for (std::size_t s = 0; s < m; ++s) {
      finite &= valid(workloads[s]);
      capped &= static_cast<unsigned>((workloads[s] == 0.0) |
                                      (demands[s] * g > 0.0));
    }
    AMF_REQUIRE(finite, at_row("workloads must be finite, >= 0", j));
    AMF_REQUIRE(effective(workloads), effective_message(j));
    AMF_REQUIRE(capped,
                at_row("positive workload requires positive demand cap", j));
  }
  // Entries where d · γ > 0: each block of sites is gathered branch-free,
  // then only its entries are copied.
  constexpr std::size_t kBlock = 64;
  int block[kBlock];
  for (std::size_t lo = 0; lo < m; lo += kBlock) {
    std::size_t count = 0;
    for (std::size_t s = lo; s < std::min(m, lo + kBlock); ++s) {
      block[count] = static_cast<int>(s);
      count += demands[s] * g > 0.0 ? 1 : 0;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto s = static_cast<std::size_t>(block[i]);
      demands_.entries.push_back({block[i], demands[s] * g});
      if (multi_resource()) task_.push_back(demands[s]);
      if (work) work_.push_back(workloads.empty() ? 0.0 : workloads[s]);
    }
  }
  has_work_ = work;
  demands_.first.push_back(static_cast<int>(demands_.entries.size()));
  weights_.push_back(weight);
  if (multi_resource()) {
    profiles_.push_back(std::move(profile));
    gammas_.push_back(g);
  }
}

double AllocationProblem::demand(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  return demands_.at(job, site);
}

double AllocationProblem::workload(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  const auto k = demands_.index_of(job, site);
  return k < 0 ? 0.0 : entry_workload(job, static_cast<std::size_t>(k));
}

double AllocationProblem::task_demand(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  const auto k = demands_.index_of(job, site);
  return k < 0 ? 0.0 : task_at(static_cast<std::size_t>(k));
}

double AllocationProblem::task_workload(int job, int site) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(site >= 0 && site < sites(), "site index out of range");
  const auto k = demands_.index_of(job, site);
  return k < 0 || !has_work_ ? 0.0 : work_[static_cast<std::size_t>(k)];
}

AllocationProblem::Row AllocationProblem::task_demand_row(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  Row row(capacities_.size(), 0.0);
  for (std::size_t k : demands_.indices(job))
    row[static_cast<std::size_t>(demands_.entries[k].site)] = task_at(k);
  return row;
}

AllocationProblem::Row AllocationProblem::task_workload_row(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  Row row(capacities_.size(), 0.0);
  if (has_work_)
    for (std::size_t k : demands_.indices(job))
      row[static_cast<std::size_t>(demands_.entries[k].site)] = work_[k];
  return row;
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
  for (const auto& [s, d] : demands_.row(job))
    total += std::min(d, capacities_[static_cast<std::size_t>(s)]);
  return total;
}

double AllocationProblem::total_work(int job) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  // As in solo_ceiling(), the zeros off the entries would add nothing.
  double total = 0.0;
  for (std::size_t k : demands_.indices(job)) total += entry_workload(job, k);
  return total;
}

double AllocationProblem::total_capacity() const {
  return std::accumulate(capacities_.begin(), capacities_.end(), 0.0);
}

double AllocationProblem::scale() const {
  double s = 1.0;
  for (double c : capacities_) s = std::max(s, c);
  for (const auto& e : demands_.entries) s = std::max(s, e.value);
  return s;
}

double AllocationProblem::split_share(std::size_t job,
                                      double weight_total) const {
  // As in solo_ceiling(), skipping the zero demands changes no bit.
  const double w = weights_[job];
  double share = 0.0;
  for (const auto& [s, d] : demands_.row(static_cast<int>(job)))
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
    int job, const Row& reported) const {
  AMF_REQUIRE(job >= 0 && job < jobs(), "job index out of range");
  AMF_REQUIRE(static_cast<int>(reported.size()) == sites(),
              "reported demand vector length != site count");
  AllocationProblem p = without_jobs();
  for (int i = 0; i < jobs(); ++i)
    p.append_job(i == job ? reported : task_demand_row(i), {},
                 weights_[static_cast<std::size_t>(i)], profile_row(i));
  return p;
}

AllocationProblem AllocationProblem::subset(
    const std::vector<int>& job_indices) const {
  AllocationProblem p = without_jobs();
  for (int j : job_indices) {
    AMF_REQUIRE(j >= 0 && j < jobs(), "job index out of range");
    p.append_job(task_demand_row(j), has_work_ ? task_workload_row(j) : Row{},
                 weights_[static_cast<std::size_t>(j)], profile_row(j));
  }
  return p;
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
  // Workloads and raw demands stay aligned with the demand entries: a
  // demand that appears or disappears inserts or erases its entry in all.
  switch (delta.kind) {
    case ProblemDelta::Kind::kJobArrived:
      append_job(delta.demand_row, delta.workload_row, delta.weight,
                 delta.profile_row);
      break;
    case ProblemDelta::Kind::kJobDeparted: {
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      const auto j = static_cast<std::size_t>(delta.job);
      const auto lo = demands_.first[j];
      const auto hi = demands_.first[j + 1];
      if (has_work_) work_.erase(work_.begin() + lo, work_.begin() + hi);
      if (multi_resource()) {
        task_.erase(task_.begin() + lo, task_.begin() + hi);
        profiles_.erase(profiles_.begin() + static_cast<std::ptrdiff_t>(j));
        gammas_.erase(gammas_.begin() + static_cast<std::ptrdiff_t>(j));
      }
      weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(j));
      demands_.erase_row(delta.job);
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
      const auto j = static_cast<std::size_t>(delta.job);
      const double effective =
          delta.value * (multi_resource() ? gammas_[j] : 1.0);
      AMF_REQUIRE(std::isfinite(effective), effective_message(j));
      const auto k = demands_.index_of(delta.job, delta.site);
      AMF_REQUIRE(effective > 0.0 || k < 0 || !has_work_ ||
                      work_[static_cast<std::size_t>(k)] == 0.0,
                  "positive workload requires positive demand cap");
      // An entry that appears or disappears does so in the aligned arrays
      // too, at the position the index gives it.
      const auto at = static_cast<std::ptrdiff_t>(
          k >= 0 ? static_cast<std::size_t>(k)
                 : demands_.find(delta.job, delta.site));
      if (k >= 0 && !(effective > 0.0)) {
        if (has_work_) work_.erase(work_.begin() + at);
        if (multi_resource()) task_.erase(task_.begin() + at);
      } else if (k < 0 && effective > 0.0) {
        if (has_work_) work_.insert(work_.begin() + at, 0.0);
        if (multi_resource()) task_.insert(task_.begin() + at, delta.value);
      } else if (k >= 0 && multi_resource()) {
        task_[static_cast<std::size_t>(k)] = delta.value;
      }
      demands_.set(delta.job, delta.site, effective);
      break;
    }
    case ProblemDelta::Kind::kWorkloadSet: {
      AMF_REQUIRE(has_workloads(),
                  "workload delta on a problem without workloads");
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      AMF_REQUIRE(delta.site >= 0 && delta.site < sites(),
                  "delta site index out of range");
      const auto j = static_cast<std::size_t>(delta.job);
      AMF_REQUIRE(delta.value >= 0.0 &&
                      std::isfinite(delta.value *
                                    (multi_resource() ? gammas_[j] : 1.0)),
                  "workloads must be finite, >= 0");
      const auto k = demands_.index_of(delta.job, delta.site);
      AMF_REQUIRE(delta.value == 0.0 || k >= 0,
                  "positive workload requires positive demand cap");
      if (k >= 0) work_[static_cast<std::size_t>(k)] = delta.value;
      break;
    }
    case ProblemDelta::Kind::kProfileSet: {
      AMF_REQUIRE(multi_resource(),
                  "profile delta on a single-resource problem");
      AMF_REQUIRE(delta.job >= 0 && delta.job < jobs(),
                  "delta job index out of range");
      const auto j = static_cast<std::size_t>(delta.job);
      require_profile(delta.profile_row, capacity_matrix_.front().size(), j);
      // A new γ rescales the row's entries in place; one that would
      // overflow, or underflow an entry to zero, is rejected.
      const double g = row_max(delta.profile_row);
      for (std::size_t k : demands_.indices(delta.job))
        AMF_REQUIRE(std::isfinite(task_[k] * g) && task_[k] * g > 0.0 &&
                        (!has_work_ || std::isfinite(work_[k] * g)),
                    effective_message(j));
      profiles_[j] = delta.profile_row;
      gammas_[j] = g;
      for (std::size_t k : demands_.indices(delta.job))
        demands_.entries[k].value = task_[k] * g;
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
  out << jobs() << ',' << sites() << ',' << (has_workloads() ? 1 : 0);
  if (multi_resource()) out << ',' << resources();
  out << '\n';
  for (int j = 0; j < jobs(); ++j) emit_row(task_demand_row(j));
  if (multi_resource()) {
    for (const auto& row : capacity_matrix_) emit_row(row);
    for (const auto& row : profiles_) emit_row(row);
  } else {
    emit_row(capacities_);
  }
  if (has_workloads())
    for (int j = 0; j < jobs(); ++j) emit_row(task_workload_row(j));
  emit_row(weights_);
}

AllocationProblem AllocationProblem::load(std::istream& in) {
  // Every row is read through the hardened CSV readers (length-capped
  // lines, finite cells, line-numbered errors), and nothing is sized from
  // the header: a header promising more rows than the file holds fails as
  // truncated once the rows run out.
  long line_no = 0;
  std::string line;
  auto next_line = [&] {
    ++line_no;
    AMF_REQUIRE(util::read_csv_line(in, line, line_no),
                "truncated problem file (line " + std::to_string(line_no) +
                    ")");
  };
  auto read_row = [&](std::size_t width) {
    next_line();
    std::vector<double> row;
    if (!line.empty()) row = util::parse_csv_doubles(line, line_no);
    AMF_REQUIRE(row.size() == width, "problem file row width mismatch (line " +
                                         std::to_string(line_no) + ")");
    return row;
  };
  next_line();
  const std::vector<double> header = util::parse_csv_doubles(line, line_no);
  AMF_REQUIRE(header.size() == 3 || header.size() == 4,
              "problem file header needs 3 or 4 cells (line 1)");
  const std::size_t n = util::header_count(header[0], "job", 1);
  const std::size_t m = util::header_count(header[1], "site", 1);
  const bool has_work = header[2] != 0.0;
  const bool multi = header.size() == 4;
  const std::size_t r =
      multi ? util::header_count(header[3], "resource", 1) : 1;

  // The demand rows precede the capacities (and, multi-resource, the
  // profiles): index them as they arrive, then feed each job with its
  // workload row as that is read.
  flow::DemandRows raw;
  raw.width = static_cast<int>(m);
  for (std::size_t j = 0; j < n; ++j) {
    const Row row = read_row(m);
    for (double d : row)
      AMF_REQUIRE(d >= 0.0, "demands must be finite, >= 0 (line " +
                                std::to_string(line_no) + ")");
    raw.append_row(row);
  }
  AllocationProblem p;
  Matrix profiles;
  if (multi) {
    Matrix caps;
    for (std::size_t s = 0; s < m; ++s) caps.push_back(read_row(r));
    p = with_site_matrix(std::move(caps));
    for (std::size_t j = 0; j < n; ++j) profiles.push_back(read_row(r));
  } else {
    p = with_sites(read_row(m));
  }
  for (std::size_t j = 0; j < n; ++j)
    p.append_job(raw[j], has_work ? read_row(m) : Row{}, 1.0,
                 multi ? std::move(profiles[j]) : Row{});
  Row weights = read_row(n);
  for (std::size_t j = 0; j < n; ++j)
    AMF_REQUIRE(weights[j] > 0.0, at_row("weights must be finite, > 0", j));
  p.weights_ = std::move(weights);
  return p;
}

}  // namespace amf::core
