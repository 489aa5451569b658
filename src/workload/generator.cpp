#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace amf::workload {

Generator::Generator(GeneratorConfig config)
    : config_(config),
      rng_(config.seed),
      site_sampler_(static_cast<std::size_t>(std::max(1, config.sites)),
                    std::max(0.0, config.zipf_skew)) {
  AMF_REQUIRE(config_.jobs >= 0, "jobs must be >= 0");
  AMF_REQUIRE(config_.sites >= 1, "sites must be >= 1");
  AMF_REQUIRE(config_.zipf_skew >= 0.0, "zipf_skew must be >= 0");
  AMF_REQUIRE(config_.sites_per_job_min >= 1, "sites_per_job_min must be >= 1");
  AMF_REQUIRE(config_.sites_per_job_max >= config_.sites_per_job_min,
              "sites_per_job_max must be >= sites_per_job_min");
  AMF_REQUIRE(config_.split_alpha > 0.0, "split_alpha must be > 0");
  AMF_REQUIRE(config_.mean_job_work > 0.0, "mean_job_work must be > 0");
  AMF_REQUIRE(config_.capacity_per_site > 0.0,
              "capacity_per_site must be > 0");
  AMF_REQUIRE(config_.capacity_jitter >= 0.0 && config_.capacity_jitter < 1.0,
              "capacity_jitter must be in [0, 1)");
  AMF_REQUIRE(config_.demand_factor > 0.0, "demand_factor must be > 0");
  AMF_REQUIRE(config_.resources >= 1, "resources must be >= 1");
  AMF_REQUIRE(config_.resource_jitter >= 0.0 && config_.resource_jitter < 1.0,
              "resource_jitter must be in [0, 1)");
  AMF_REQUIRE(config_.profile_min > 0.0 &&
                  config_.profile_max >= config_.profile_min,
              "profile range must satisfy 0 < profile_min <= profile_max");
}

double Generator::draw_job_work(util::Rng& rng) const {
  switch (config_.size_distribution) {
    case SizeDistribution::kUniform:
      return rng.uniform(0.5 * config_.mean_job_work,
                         1.5 * config_.mean_job_work);
    case SizeDistribution::kLognormal: {
      // Choose mu so that E[X] = mean_job_work for the given sigma.
      double sigma = config_.lognormal_sigma;
      double mu = std::log(config_.mean_job_work) - 0.5 * sigma * sigma;
      return rng.lognormal(mu, sigma);
    }
    case SizeDistribution::kPareto: {
      // E[X] = xm·alpha/(alpha-1) for alpha > 1; solve xm for the mean.
      double alpha = std::max(1.05, config_.pareto_alpha);
      double xm = config_.mean_job_work * (alpha - 1.0) / alpha;
      return rng.pareto(xm, alpha);
    }
  }
  AMF_ASSERT(false, "unknown size distribution");
  return 0.0;
}

std::vector<double> Generator::draw_capacities(util::Rng& rng) const {
  std::vector<double> caps(static_cast<std::size_t>(config_.sites));
  for (auto& c : caps) {
    double jitter =
        config_.capacity_jitter == 0.0
            ? 0.0
            : rng.uniform(-config_.capacity_jitter, config_.capacity_jitter);
    c = config_.capacity_per_site * (1.0 + jitter);
  }
  return caps;
}

core::Matrix Generator::draw_capacity_matrix(util::Rng& rng) const {
  AMF_REQUIRE(config_.resources > 1,
              "capacity matrix draws need a multi-resource config");
  core::Matrix caps(static_cast<std::size_t>(config_.sites));
  for (auto& row : caps) {
    row.resize(static_cast<std::size_t>(config_.resources));
    for (auto& c : row) {
      double jitter =
          config_.resource_jitter == 0.0
              ? 0.0
              : rng.uniform(-config_.resource_jitter, config_.resource_jitter);
      c = config_.capacity_per_site * (1.0 + jitter);
    }
  }
  return caps;
}

std::vector<double> Generator::draw_profile(util::Rng& rng) const {
  AMF_REQUIRE(config_.resources > 1,
              "profile draws need a multi-resource config");
  std::vector<double> profile(static_cast<std::size_t>(config_.resources));
  for (auto& p : profile)
    p = rng.uniform(config_.profile_min, config_.profile_max);
  return profile;
}

Generator::JobRow Generator::draw_job_row(
    const std::vector<double>& capacities, util::Rng& rng) const {
  const int m = static_cast<int>(capacities.size());
  const int span = std::min(
      m, static_cast<int>(rng.uniform_int(config_.sites_per_job_min,
                                          config_.sites_per_job_max)));

  // Pick `span` distinct sites, hot sites preferred per the Zipf law.
  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(span));
  std::vector<char> used(static_cast<std::size_t>(m), 0);
  int guard = 0;
  while (static_cast<int>(chosen.size()) < span) {
    int s = static_cast<int>(site_sampler_(rng)) % m;
    if (!used[static_cast<std::size_t>(s)]) {
      used[static_cast<std::size_t>(s)] = 1;
      chosen.push_back(s);
    } else if (++guard > 64 * m) {
      // Heavily skewed sampler keeps hitting taken sites: fill linearly.
      for (int t = 0; t < m && static_cast<int>(chosen.size()) < span; ++t)
        if (!used[static_cast<std::size_t>(t)]) {
          used[static_cast<std::size_t>(t)] = 1;
          chosen.push_back(t);
        }
    }
  }

  const double work = draw_job_work(rng);
  auto split = rng.dirichlet(chosen.size(), config_.split_alpha);

  JobRow row;
  row.workloads.assign(static_cast<std::size_t>(m), 0.0);
  row.demands.assign(static_cast<std::size_t>(m), 0.0);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    int s = chosen[i];
    double w = work * split[i];
    if (w <= 0.0) continue;
    row.workloads[static_cast<std::size_t>(s)] = w;
    switch (config_.demand_model) {
      case DemandModel::kUncapped:
        row.demands[static_cast<std::size_t>(s)] =
            capacities[static_cast<std::size_t>(s)];
        break;
      case DemandModel::kProportionalToWork:
        row.demands[static_cast<std::size_t>(s)] =
            std::min(capacities[static_cast<std::size_t>(s)],
                     config_.demand_factor * w);
        break;
    }
  }
  return row;
}

core::AllocationProblem Generator::generate() {
  // R > 1 draws a capacity matrix instead of a scalar capacity row and a
  // Leontief profile per job; every extra draw is gated on the config so
  // R = 1 consumes the exact pre-lift RNG sequence. Jobs arrive one row at
  // a time, so no jobs × sites matrix is ever built.
  const bool multi = config_.resources > 1;
  core::AllocationProblem problem =
      multi ? core::AllocationProblem::multi({}, draw_capacity_matrix(rng_), {})
            : core::AllocationProblem({}, draw_capacities(rng_));
  for (int j = 0; j < config_.jobs; ++j) {
    auto row = draw_job_row(problem.capacities(), rng_);
    problem = std::move(problem).apply(core::ProblemDelta::job_arrived(
        std::move(row.demands), std::move(row.workloads), 1.0, {},
        multi ? draw_profile(rng_) : std::vector<double>{}));
  }
  return problem;
}

}  // namespace amf::workload
