#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace amf::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Handles

void Counter::add(long long delta) {
  if (cell_ != nullptr) cell_->fetch_add(delta, kRelaxed);
}

long long Counter::value() const {
  return cell_ == nullptr ? 0 : cell_->load(kRelaxed);
}

void Gauge::set(double v) {
  if (cell_ != nullptr) cell_->store(v, kRelaxed);
}

double Gauge::value() const {
  return cell_ == nullptr ? 0.0 : cell_->load(kRelaxed);
}

double Histogram::bucket_bound(std::size_t i) {
  if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return kScale * std::ldexp(1.0, static_cast<int>(i));
}

std::size_t Histogram::bucket_index(double x) {
  if (!(x > kScale)) return 0;  // also catches NaN and non-positive values
  // x = m * 2^e with m in [0.5, 1), so log2(x / kScale) lies in (e-1, e]
  // and bucket e (bound kScale * 2^e) is the first bound >= x — except
  // when x sits exactly on bound e-1 (m == 0.5): bounds are inclusive,
  // matching Prometheus `le` semantics. The division is exact for samples
  // on a bound (kScale * 2^i / kScale == 2^i), so the equality is reliable.
  int e = 0;
  const double m = std::frexp(x / kScale, &e);
  if (e <= 0) return 0;
  std::size_t idx = static_cast<std::size_t>(e);
  if (m == 0.5) --idx;
  return std::min(idx, kNumBuckets - 1);
}

void Histogram::observe(double x) {
  if (cell_ == nullptr) return;
  const std::size_t b = bucket_index(x);
  std::lock_guard<std::mutex> lock(cell_->mu);
  ++cell_->buckets[b];
  cell_->stats.add(x);
}

// ---------------------------------------------------------------------------
// Snapshot lookups

namespace {

template <typename Vec>
auto find_sample(const Vec& v, std::string_view name) -> decltype(&v[0]) {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& s, std::string_view n) { return s.name < n; });
  if (it == v.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace

long long Snapshot::counter(std::string_view name) const {
  const auto* s = find_sample(counters, name);
  return s == nullptr ? 0 : s->value;
}

double Snapshot::gauge(std::string_view name) const {
  const auto* s = find_sample(gauges, name);
  return s == nullptr ? 0.0 : s->value;
}

const HistogramSample* Snapshot::histogram(std::string_view name) const {
  return find_sample(histograms, name);
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  // Leaked on purpose: pool threads may write through their handles after
  // static destructors start running.
  static Registry* g = new Registry();
  return *g;
}

std::size_t Registry::slot_locked(std::string_view name, MetricKind kind,
                                  std::string_view help) {
  AMF_REQUIRE(!name.empty(), "metric name must not be empty");
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const MetricInfo& info = metrics_[it->second];
    AMF_REQUIRE(info.kind == kind,
                "metric '" + info.name + "' already registered as " +
                    std::string(to_string(info.kind)) + ", requested " +
                    std::string(to_string(kind)));
    return info.slot;
  }
  MetricInfo info;
  info.name = std::string(name);
  info.help = std::string(help);
  info.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      info.slot = counters_.size();
      counters_.emplace_back();
      break;
    case MetricKind::kGauge:
      info.slot = gauges_.size();
      gauges_.emplace_back(0.0);
      break;
    case MetricKind::kHistogram:
      info.slot = hists_.size();
      hists_.emplace_back();
      break;
  }
  by_name_.emplace(info.name, metrics_.size());
  metrics_.push_back(std::move(info));
  return metrics_.back().slot;
}

Counter Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Counter(
      &counters_[slot_locked(name, MetricKind::kCounter, help)].value);
}

Gauge Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Gauge(&gauges_[slot_locked(name, MetricKind::kGauge, help)]);
}

Histogram Registry::histogram(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Histogram(&hists_[slot_locked(name, MetricKind::kHistogram, help)]);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const MetricInfo& info : metrics_) {
    switch (info.kind) {
      case MetricKind::kCounter:
        snap.counters.push_back(CounterSample{
            info.name, counters_[info.slot].value.load(kRelaxed), info.help});
        break;
      case MetricKind::kGauge:
        snap.gauges.push_back(GaugeSample{
            info.name, gauges_[info.slot].load(kRelaxed), info.help});
        break;
      case MetricKind::kHistogram: {
        HistogramSample sample;
        sample.name = info.name;
        sample.help = info.help;
        const detail::HistCell& cell = hists_[info.slot];
        {
          std::lock_guard<std::mutex> cell_lock(cell.mu);
          sample.buckets = cell.buckets;
          sample.stats = cell.stats;
        }
        snap.histograms.push_back(std::move(sample));
        break;
      }
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

}  // namespace amf::obs
