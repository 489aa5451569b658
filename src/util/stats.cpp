#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace amf::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::cv() const {
  double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

double Accumulator::min() const { return n_ == 0 ? 0.0 : min_; }
double Accumulator::max() const { return n_ == 0 ? 0.0 : max_; }

double jain_index(std::span<const double> x) {
  if (x.empty()) return 1.0;
  double sum = 0.0, sumsq = 0.0;
  for (double v : x) {
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sumsq);
}

double min_max_ratio(std::span<const double> x) {
  if (x.empty()) return 1.0;
  auto [mn, mx] = std::minmax_element(x.begin(), x.end());
  if (*mx == 0.0) return 1.0;
  return *mn / *mx;
}

double coefficient_of_variation(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double mean = std::accumulate(x.begin(), x.end(), 0.0) /
                static_cast<double>(x.size());
  if (mean == 0.0) return 0.0;
  double ss = 0.0;
  for (double v : x) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(x.size())) / mean;
}

double percentile(std::span<const double> x, double p) {
  AMF_REQUIRE(!x.empty(), "percentile of empty sample");
  AMF_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  auto hi = static_cast<std::size_t>(std::ceil(rank));
  double frac = rank - std::floor(rank);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> x) {
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  std::vector<std::pair<double, double>> cdf;
  const double n = static_cast<double>(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Collapse runs of equal values into one point at the run's end.
    if (i + 1 < v.size() && v[i + 1] == v[i]) continue;
    cdf.emplace_back(v[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

double gini(std::span<const double> x) {
  if (x.empty()) return 0.0;
  std::vector<double> v(x.begin(), x.end());
  for (double val : v) AMF_REQUIRE(val >= 0.0, "gini needs non-negative values");
  std::sort(v.begin(), v.end());
  double sum = std::accumulate(v.begin(), v.end(), 0.0);
  if (sum == 0.0) return 0.0;
  const double n = static_cast<double>(v.size());
  double weighted = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    weighted += static_cast<double>(i + 1) * v[i];
  return (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
}

std::vector<std::size_t> histogram(std::span<const double> x, double lo,
                                   double hi, std::size_t bins) {
  AMF_REQUIRE(bins > 0, "histogram needs at least one bin");
  AMF_REQUIRE(lo < hi, "histogram needs lo < hi");
  std::vector<std::size_t> h(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : x) {
    auto idx = static_cast<std::ptrdiff_t>((v - lo) / width);
    idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                     static_cast<std::ptrdiff_t>(bins) - 1);
    ++h[static_cast<std::size_t>(idx)];
  }
  return h;
}

}  // namespace amf::util
