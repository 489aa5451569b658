// metrics.hpp — thread-safe metric registry: monotonic counters, gauges, and
// fixed-bucket log-scale histograms.
//
// Design: one cell per metric, owned by the registry. A counter is one
// atomic on its own cache line, added to with a relaxed fetch_add; a gauge
// is one atomic double; a histogram is its bucket counts plus a
// util::Accumulator (Welford moments) under one mutex. Handles point
// straight at their cell, so a write takes no registry lock; a scrape
// (Registry::snapshot) reads every cell under the registration mutex and
// copies each histogram under its own lock.
//
// The registry is always compiled in — only span tracing (span.hpp) honours
// the AMF_OBS_ENABLED kill switch — because fallback accounting and the
// bench gates depend on counters working in every build flavour.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace amf::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricKind kind);

/// Number of histogram buckets (log2-spaced; the last bucket is +inf).
inline constexpr std::size_t kHistogramBuckets = 40;

namespace detail {

/// One counter on a cache line of its own, so that threads adding to
/// neighbouring counters from other CPUs do not invalidate it.
struct alignas(64) CounterCell {
  std::atomic<long long> value{0};
};

/// One histogram's state; observe() and snapshot() hold `mu`.
struct HistCell {
  mutable std::mutex mu;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  util::Accumulator stats;
};

}  // namespace detail

/// Handle to a monotonic counter.  Cheap to copy; add() is lock-free.
class Counter {
 public:
  Counter() = default;
  void add(long long delta = 1);
  long long value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::atomic<long long>* cell) : cell_(cell) {}
  std::atomic<long long>* cell_ = nullptr;
};

/// Handle to a last-write-wins gauge.
class Gauge {
 public:
  Gauge() = default;
  void set(double v);
  double value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Handle to a log-scale histogram.  Bucket i covers
/// (bucket_bound(i-1), bucket_bound(i)] with bounds kScale * 2^i; the last
/// bucket is +inf.  observe() also maintains Welford moments.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = kHistogramBuckets;
  /// Smallest finite bucket bound; tuned for latencies in milliseconds.
  static constexpr double kScale = 1e-6;

  /// Upper bound of bucket i (inclusive); +inf for the last bucket.
  static double bucket_bound(std::size_t i);
  /// Index of the bucket a sample falls into.
  static std::size_t bucket_index(double x);

  Histogram() = default;
  void observe(double x);
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistCell* cell) : cell_(cell) {}
  detail::HistCell* cell_ = nullptr;
};

struct CounterSample {
  std::string name;
  long long value = 0;
  std::string help;  ///< registration help text (exporters emit # HELP)
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  std::string help;
};

struct HistogramSample {
  std::string name;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  util::Accumulator stats;
  std::string help;
};

/// Point-in-time view of a registry, sorted by metric name.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers; counters/gauges return 0 when the metric is absent.
  long long counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const HistogramSample* histogram(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry.  Intentionally leaked so worker threads that
  /// outlive main() can still write through their handles during teardown.
  static Registry& global();

  /// Registration is idempotent by name; re-registering an existing name
  /// with a different kind throws util::ContractError.
  Counter counter(std::string_view name, std::string_view help = {});
  Gauge gauge(std::string_view name, std::string_view help = {});
  Histogram histogram(std::string_view name, std::string_view help = {});

  /// Every metric's current value, one entry per metric.
  Snapshot snapshot() const;

  /// Number of registered metrics.
  std::size_t size() const;

 private:
  struct MetricInfo {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::size_t slot = 0;  ///< index into the kind's cell deque
  };

  /// The metric's slot in its kind's deque, registering it if new.
  /// Requires mu_.
  std::size_t slot_locked(std::string_view name, MetricKind kind,
                          std::string_view help);

  mutable std::mutex mu_;
  std::vector<MetricInfo> metrics_;
  std::unordered_map<std::string, std::size_t> by_name_;
  // Deques: growing one never moves a cell a handle points at.
  std::deque<detail::CounterCell> counters_;
  std::deque<std::atomic<double>> gauges_;
  std::deque<detail::HistCell> hists_;
};

}  // namespace amf::obs
