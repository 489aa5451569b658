// slo.hpp — rolling SLO windows computed from registry snapshots.
//
// An SloTracker watches three already-registered serving metrics — the
// amf_svc_turnaround_ms histogram, the amf_svc_solves_served_total
// counter and the amf_svc_rejects_total counter — and keeps a fixed-size
// ring of per-window deltas between successive snapshots.
// Each tick() closes one window, so the caller's tick period defines the
// window width; no extra hot-path instrumentation is needed, the tracker
// reads the same counters the hot path already maintains.
//
// From the ring it derives:
//   * sliding p50/p99 latency over the whole ring (log-bucket
//     interpolation, same buckets as obs::Histogram);
//   * shed rate = sheds / (served + sheds) over the ring;
//   * multi-window burn rate: bad-event fraction divided by the error
//     budget, over a fast horizon (last `fast_windows` windows) and the
//     slow horizon (whole ring).  A budget-based alert fires when BOTH
//     are high — the classic multi-window multi-burn-rate rule.
//
// Results are republished as gauges (`amf_svc_slo_p99_ms`, ...) so the
// Prometheus endpoint exports them with no extra wiring, and as JSON for
// the /slo endpoint.  All entry points are thread-safe: a ticker thread
// calls tick() while HTTP handlers call report()/to_json().
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace amf::obs {

struct SloConfig {
  /// Nominal window width in seconds (the caller's tick period); only
  /// used for reporting horizons, not measured internally.
  double window_s = 10.0;
  /// Ring size: the slow horizon covers `windows * window_s` seconds.
  std::size_t windows = 30;
  /// Fast burn-rate horizon, in windows (must be <= windows).
  std::size_t fast_windows = 3;
  /// Latency objective: samples above this count against the budget.
  double p99_target_ms = 50.0;
  /// Allowed bad-event fraction (sheds + slow requests). Burn rate 1.0
  /// means the budget is being consumed exactly at the sustainable rate.
  double error_budget = 0.01;
};

class SloTracker {
 public:
  /// Registers the output gauges on `reg` immediately; throws
  /// util::ContractError on nonsensical config (windows == 0, budget
  /// <= 0, fast_windows > windows).
  SloTracker(Registry* reg, SloConfig cfg);

  /// Closes one window: snapshots the registry, diffs against the last
  /// cumulative values, pushes the delta into the ring and republishes
  /// the derived gauges.
  void tick();
  /// Same, from a caller-provided snapshot (deterministic tests).
  void tick(const Snapshot& snap);

  struct Report {
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double shed_rate = 0.0;
    double burn_rate_fast = 0.0;
    double burn_rate_slow = 0.0;
    std::uint64_t served = 0;   ///< good events over the ring
    std::uint64_t shed = 0;     ///< bad (shed) events over the ring
    std::uint64_t samples = 0;  ///< latency samples over the ring
    std::size_t windows_filled = 0;
    double horizon_s = 0.0;  ///< windows_filled * window_s
  };

  /// Derived view over the currently filled windows.
  Report report() const;
  /// JSON object for the /slo endpoint: the report plus the config
  /// targets, so a scraper can judge pass/fail without extra context.
  std::string to_json() const;

  const SloConfig& config() const { return cfg_; }

 private:
  struct Window {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
  };

  Report report_locked() const;
  void publish(const Report& r);

  SloConfig cfg_;
  Registry* reg_ = nullptr;
  Gauge g_p50_, g_p99_, g_shed_rate_, g_burn_fast_, g_burn_slow_,
      g_windows_;

  mutable std::mutex mu_;
  std::vector<Window> ring_;
  std::size_t next_ = 0;            ///< ring slot the next tick writes
  std::size_t filled_ = 0;          ///< min(total ticks, ring size)
  bool have_baseline_ = false;      ///< first tick only sets the baseline
  Window cumulative_;               ///< last-seen cumulative values
};

/// Interpolated quantile (q in [0,1]) from log-scale histogram bucket
/// counts (obs::Histogram bucket layout).  Returns 0 when empty; samples
/// in the +inf bucket clamp to the largest finite bound.  Exposed for
/// tests and ad-hoc tooling.
double bucket_quantile(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets, double q);

}  // namespace amf::obs
