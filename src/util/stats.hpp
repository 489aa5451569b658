// stats.hpp — statistics used across experiments: running accumulators,
// percentiles/CDFs, and the fairness indices reported by the paper's
// evaluation (Jain's index, coefficient of variation, min/max ratio).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace amf::util {

/// Numerically stable running mean/variance (Welford) with min/max.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double sum() const { return mean_ * static_cast<double>(n_); }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Coefficient of variation: stddev / mean (0 if mean == 0).
  double cv() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Jain's fairness index: (Σx)² / (n·Σx²) in (0, 1]; 1 means perfectly equal.
/// Returns 1.0 for empty or all-zero input (no inequality to measure).
double jain_index(std::span<const double> x);

/// min(x) / max(x); 1 means perfectly balanced, 0 means some job starved.
/// Returns 1.0 for empty input and 0.0 when max > 0 but min == 0.
double min_max_ratio(std::span<const double> x);

/// Coefficient of variation of a sample (population stddev / mean).
double coefficient_of_variation(std::span<const double> x);

/// p-th percentile (p in [0, 100]) with linear interpolation between ranks.
/// Requires non-empty input; does not require sorted input.
double percentile(std::span<const double> x, double p);

/// Empirical CDF points (x sorted ascending, y = fraction <= x), one point
/// per distinct value. Suitable for plotting.
std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> x);

/// Gini coefficient in [0, 1): 0 = perfect equality. Requires non-negative
/// values; returns 0 for empty or all-zero input.
double gini(std::span<const double> x);

/// Fixed-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the first/last bucket.
std::vector<std::size_t> histogram(std::span<const double> x, double lo,
                                   double hi, std::size_t bins);

}  // namespace amf::util
