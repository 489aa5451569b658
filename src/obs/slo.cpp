#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace amf::obs {

namespace {

/// The serving metrics the tracker reads, and its gauges' name prefix.
constexpr const char* kLatencyMetric = "amf_svc_turnaround_ms";
constexpr const char* kServedCounter = "amf_svc_solves_served_total";
constexpr const char* kShedCounter = "amf_svc_rejects_total";
constexpr const char* kGaugePrefix = "amf_svc_slo";

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = 0.0;
  if (std::sscanf(buf, "%lf", &back) == 1 && back == v)
    return std::string(buf);
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

/// Latency samples at or above `target_ms`, counted conservatively: the
/// whole bucket containing the target is treated as good (its samples
/// may be below the target), buckets strictly above it as bad.
std::uint64_t samples_above(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets,
    double target_ms) {
  const std::size_t cut = Histogram::bucket_index(target_ms);
  std::uint64_t bad = 0;
  for (std::size_t i = cut + 1; i < kHistogramBuckets; ++i)
    bad += buckets[i];
  return bad;
}

}  // namespace

double bucket_quantile(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    const double hi = Histogram::bucket_bound(i);
    if (std::isinf(hi)) return Histogram::bucket_bound(i - 1);
    const double lo = i == 0 ? 0.0 : Histogram::bucket_bound(i - 1);
    const double frac =
        (rank - below) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return Histogram::bucket_bound(kHistogramBuckets - 2);
}

SloTracker::SloTracker(Registry* reg, SloConfig cfg)
    : cfg_(std::move(cfg)), reg_(reg) {
  if (reg_ == nullptr) throw util::ContractError("SloTracker: null registry");
  if (cfg_.windows == 0)
    throw util::ContractError("SloTracker: windows must be >= 1");
  if (cfg_.fast_windows == 0 || cfg_.fast_windows > cfg_.windows)
    throw util::ContractError(
        "SloTracker: fast_windows must be in [1, windows]");
  if (cfg_.error_budget <= 0.0)
    throw util::ContractError("SloTracker: error_budget must be > 0");
  ring_.resize(cfg_.windows);
  const std::string p = kGaugePrefix;
  g_p50_ = reg_->gauge(p + "_p50_ms",
                       "sliding-window median latency over the SLO ring");
  g_p99_ = reg_->gauge(p + "_p99_ms",
                       "sliding-window p99 latency over the SLO ring");
  g_shed_rate_ =
      reg_->gauge(p + "_shed_rate",
                  "shed fraction (sheds / requests) over the SLO ring");
  g_burn_fast_ = reg_->gauge(
      p + "_burn_rate_fast",
      "error-budget burn rate over the fast horizon (1.0 = sustainable)");
  g_burn_slow_ = reg_->gauge(
      p + "_burn_rate_slow",
      "error-budget burn rate over the full SLO ring (1.0 = sustainable)");
  g_windows_ =
      reg_->gauge(p + "_windows", "SLO windows currently holding data");
}

void SloTracker::tick() { tick(reg_->snapshot()); }

void SloTracker::tick(const Snapshot& snap) {
  Window now;
  if (const HistogramSample* h = snap.histogram(kLatencyMetric))
    now.buckets = h->buckets;
  now.served =
      static_cast<std::uint64_t>(std::max<long long>(
          0, snap.counter(kServedCounter)));
  now.shed = static_cast<std::uint64_t>(
      std::max<long long>(0, snap.counter(kShedCounter)));

  Report r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_baseline_) {
      // First observation: nothing to diff against, just set the baseline
      // so the first real window is not polluted by pre-start traffic.
      cumulative_ = now;
      have_baseline_ = true;
      r = report_locked();
    } else {
      Window delta;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        // Counters are monotone, but a registry reset (tests) may lower
        // them; clamp instead of underflowing.
        delta.buckets[i] = now.buckets[i] >= cumulative_.buckets[i]
                               ? now.buckets[i] - cumulative_.buckets[i]
                               : 0;
      }
      delta.served =
          now.served >= cumulative_.served ? now.served - cumulative_.served
                                           : 0;
      delta.shed =
          now.shed >= cumulative_.shed ? now.shed - cumulative_.shed : 0;
      cumulative_ = now;
      ring_[next_] = delta;
      next_ = (next_ + 1) % ring_.size();
      filled_ = std::min(filled_ + 1, ring_.size());
      r = report_locked();
    }
  }
  publish(r);
}

SloTracker::Report SloTracker::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_locked();
}

SloTracker::Report SloTracker::report_locked() const {
  Report r;
  r.windows_filled = filled_;
  r.horizon_s = static_cast<double>(filled_) * cfg_.window_s;
  if (filled_ == 0) return r;

  std::array<std::uint64_t, kHistogramBuckets> merged{};
  std::uint64_t fast_bad = 0, fast_total = 0;
  for (std::size_t k = 0; k < filled_; ++k) {
    // Walk backwards from the most recently written slot.
    const std::size_t idx =
        (next_ + ring_.size() - 1 - k) % ring_.size();
    const Window& w = ring_[idx];
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
      merged[i] += w.buckets[i];
    r.served += w.served;
    r.shed += w.shed;
    if (k < cfg_.fast_windows) {
      fast_bad += w.shed + samples_above(w.buckets, cfg_.p99_target_ms);
      fast_total += w.served + w.shed;
    }
  }
  for (std::uint64_t b : merged) r.samples += b;
  r.p50_ms = bucket_quantile(merged, 0.50);
  r.p99_ms = bucket_quantile(merged, 0.99);

  const std::uint64_t total = r.served + r.shed;
  r.shed_rate =
      total > 0 ? static_cast<double>(r.shed) / static_cast<double>(total)
                : 0.0;
  const std::uint64_t slow_bad =
      r.shed + samples_above(merged, cfg_.p99_target_ms);
  r.burn_rate_slow =
      total > 0 ? (static_cast<double>(slow_bad) /
                   static_cast<double>(total)) /
                      cfg_.error_budget
                : 0.0;
  r.burn_rate_fast =
      fast_total > 0 ? (static_cast<double>(fast_bad) /
                        static_cast<double>(fast_total)) /
                           cfg_.error_budget
                     : 0.0;
  return r;
}

void SloTracker::publish(const Report& r) {
  g_p50_.set(r.p50_ms);
  g_p99_.set(r.p99_ms);
  g_shed_rate_.set(r.shed_rate);
  g_burn_fast_.set(r.burn_rate_fast);
  g_burn_slow_.set(r.burn_rate_slow);
  g_windows_.set(static_cast<double>(r.windows_filled));
}

std::string SloTracker::to_json() const {
  const Report r = report();
  std::string out = "{";
  out += "\"p50_ms\":" + fmt_double(r.p50_ms);
  out += ",\"p99_ms\":" + fmt_double(r.p99_ms);
  out += ",\"shed_rate\":" + fmt_double(r.shed_rate);
  out += ",\"burn_rate_fast\":" + fmt_double(r.burn_rate_fast);
  out += ",\"burn_rate_slow\":" + fmt_double(r.burn_rate_slow);
  out += ",\"served\":" + std::to_string(r.served);
  out += ",\"shed\":" + std::to_string(r.shed);
  out += ",\"samples\":" + std::to_string(r.samples);
  out += ",\"windows\":" + std::to_string(r.windows_filled);
  out += ",\"horizon_s\":" + fmt_double(r.horizon_s);
  out += ",\"p99_target_ms\":" + fmt_double(cfg_.p99_target_ms);
  out += ",\"error_budget\":" + fmt_double(cfg_.error_budget);
  out += ",\"window_s\":" + fmt_double(cfg_.window_s);
  out += "}\n";
  return out;
}

}  // namespace amf::obs
