// obs_test.cpp — metric registry, scoped-span tracer, and exporters.
//
// Registry tests use test-local Registry instances so counts are exact no
// matter what other instrumented code ran in this process; tracer tests
// use the global tracer (the macros are hard-wired to it) and clear it
// around each check.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amf.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace {

using namespace amf;

TEST(ObsCounter, AddAndIdempotentRegistration) {
  obs::Registry reg;
  auto c = reg.counter("amf_test_total", "help text");
  EXPECT_TRUE(c.valid());
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name → same underlying slot, regardless of the handle.
  auto again = reg.counter("amf_test_total");
  EXPECT_EQ(again.value(), 42);
  again.add(8);
  EXPECT_EQ(c.value(), 50);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsCounter, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("amf_test_metric");
  EXPECT_THROW(reg.gauge("amf_test_metric"), util::ContractError);
  EXPECT_THROW(reg.histogram("amf_test_metric"), util::ContractError);
  EXPECT_THROW(reg.counter(""), util::ContractError);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Registry reg;
  auto g = reg.gauge("amf_test_gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
  EXPECT_EQ(reg.snapshot().gauge("amf_test_gauge"), -2.25);
}

TEST(ObsHistogram, BucketIndexBounds) {
  using H = obs::Histogram;
  // Non-positive and tiny samples land in bucket 0.
  EXPECT_EQ(H::bucket_index(0.0), 0u);
  EXPECT_EQ(H::bucket_index(-3.0), 0u);
  EXPECT_EQ(H::bucket_index(H::kScale), 0u);
  // Huge samples land in the +inf bucket.
  EXPECT_EQ(H::bucket_index(1e30), H::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(H::bucket_bound(H::kNumBuckets - 1)));
  // Bounds are monotone and inclusive: bound(i) itself falls in bucket i.
  for (std::size_t i = 0; i + 1 < H::kNumBuckets; ++i) {
    EXPECT_EQ(H::bucket_index(H::bucket_bound(i)), i) << "bucket " << i;
    if (i + 2 < H::kNumBuckets) {
      EXPECT_LT(H::bucket_bound(i), H::bucket_bound(i + 1));
    }
    // Just above the bound spills into the next bucket.
    EXPECT_EQ(H::bucket_index(H::bucket_bound(i) * 1.001), i + 1);
  }
}

TEST(ObsHistogram, MomentsMatchAccumulator) {
  obs::Registry reg;
  auto h = reg.histogram("amf_test_latency");
  util::Accumulator expect;
  for (double x : {1.0, 2.0, 3.0, 4.0, 10.0}) {
    h.observe(x);
    expect.add(x);
  }
  const auto snap = reg.snapshot();
  const auto* sample = snap.histogram("amf_test_latency");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->stats.count(), expect.count());
  EXPECT_DOUBLE_EQ(sample->stats.mean(), expect.mean());
  EXPECT_DOUBLE_EQ(sample->stats.stddev(), expect.stddev());
  EXPECT_EQ(sample->stats.min(), 1.0);
  EXPECT_EQ(sample->stats.max(), 10.0);
  std::uint64_t total = 0;
  for (std::uint64_t b : sample->buckets) total += b;
  EXPECT_EQ(total, 5u);
}

// The documented determinism contract: a multi-threaded run merges to the
// same count/mean/stddev as a single-threaded one, regardless of the
// interleaving, because each shard's Welford moments are combined with
// the exact pairwise merge.
TEST(ObsRegistry, ThreadShardMergeIsDeterministic) {
  obs::Registry reg;
  auto c = reg.counter("amf_test_hits");
  auto h = reg.histogram("amf_test_obs");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 1; i <= kPerThread; ++i) {
        c.add(1);
        h.observe(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  // The reference: the same per-thread moments combined with the same
  // pairwise merge the registry uses. Every shard holds identical moments,
  // so the scrape must reproduce this bit for bit no matter how the
  // threads interleaved.
  util::Accumulator single;
  for (int i = 1; i <= kPerThread; ++i) single.add(static_cast<double>(i));
  util::Accumulator expect;
  for (int t = 0; t < kThreads; ++t) expect.merge(single);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("amf_test_hits"), kThreads * kPerThread);
  const auto* sample = snap.histogram("amf_test_obs");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->stats.count(), expect.count());
  EXPECT_DOUBLE_EQ(sample->stats.mean(), expect.mean());
  EXPECT_DOUBLE_EQ(sample->stats.stddev(), expect.stddev());
  EXPECT_EQ(sample->stats.min(), 1.0);
  EXPECT_EQ(sample->stats.max(), static_cast<double>(kPerThread));
  std::uint64_t total = 0;
  for (std::uint64_t b : sample->buckets) total += b;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ObsRegistry, InstanceShardRetireKeepsGlobalMonotonic) {
  obs::Registry reg;
  auto c = reg.counter("amf_test_served");
  auto shard = reg.new_shard();
  c.add_to(*shard, 5);
  EXPECT_EQ(c.value_in(*shard), 5);
  EXPECT_EQ(c.value(), 5);

  // Retiring restarts the per-instance view but the global total is folded
  // into the retired base — a scrape never sees a counter go backwards.
  reg.retire(*shard);
  EXPECT_EQ(c.value_in(*shard), 0);
  EXPECT_EQ(c.value(), 5);
  c.add_to(*shard, 3);
  EXPECT_EQ(c.value_in(*shard), 3);
  EXPECT_EQ(c.value(), 8);

  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(c.value_in(*shard), 0);
}

TEST(ObsRegistry, SnapshotLookupOnAbsentMetrics) {
  obs::Registry reg;
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("nope"), 0);
  EXPECT_EQ(snap.gauge("nope"), 0.0);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
}

#if AMF_OBS_ENABLED
TEST(ObsTracer, NestedSpansSortParentFirst) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    AMF_SPAN("test/outer");
    {
      AMF_SPAN_ARG("test/inner", "n", 7);
    }
    AMF_INSTANT_ARG("test/mark", "site", 3);
  }
  tracer.set_enabled(false);
  auto events = tracer.drain();
  EXPECT_EQ(tracer.recorded(), 0u);  // drain cleared the rings
  ASSERT_EQ(events.size(), 3u);

  const obs::SpanEvent* outer = nullptr;
  const obs::SpanEvent* inner = nullptr;
  const obs::SpanEvent* mark = nullptr;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "test/outer") outer = &ev;
    if (std::string(ev.name) == "test/inner") inner = &ev;
    if (std::string(ev.name) == "test/mark") mark = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);
  // Well-formed nesting: the inner span lies inside the outer's interval,
  // and the sort puts the enclosing span first.
  EXPECT_FALSE(outer->instant());
  EXPECT_FALSE(inner->instant());
  EXPECT_TRUE(mark->instant());
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_LT(outer - events.data(), inner - events.data());
  EXPECT_EQ(std::string(inner->arg_name), "n");
  EXPECT_EQ(inner->arg, 7);
  EXPECT_EQ(mark->arg, 3);
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  {
    AMF_SPAN("test/ghost");
    AMF_INSTANT("test/ghost_mark");
  }
  EXPECT_EQ(tracer.recorded(), 0u);
}
#endif  // AMF_OBS_ENABLED

TEST(ObsExport, ChromeTraceRoundTrip) {
  std::vector<obs::SpanEvent> events(3);
  events[0] = {"outer", "jobs", 10.0, 50.0, 4, 0};
  events[1] = {"inner", nullptr, 20.0, 5.0, 0, 0};
  events[2] = {"mark", "site", 30.0, -1.0, 2, 1};
  const std::string json = obs::to_chrome_trace(events);

  // Structural well-formedness without a JSON library: balanced braces and
  // brackets, and one object per event.
  long braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"jobs\":4}"), std::string::npos);
  // The instant renders as a global marker with no dur.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"site\":2}"), std::string::npos);
}

TEST(ObsExport, PrometheusTextMatchesRegistry) {
  obs::Registry reg;
  reg.counter("amf_test_events").add(7);
  reg.gauge("amf_test_rate").set(0.5);
  auto h = reg.histogram("amf_test_ms");
  h.observe(1.0);
  h.observe(2.0);
  const std::string text = obs::to_prometheus_text(reg.snapshot());

  EXPECT_NE(text.find("# TYPE amf_test_events counter\namf_test_events 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE amf_test_rate gauge\namf_test_rate 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE amf_test_ms histogram\n"), std::string::npos);
  // Buckets are cumulative; the +Inf bucket equals _count.
  EXPECT_NE(text.find("amf_test_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("amf_test_ms_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("amf_test_ms_count 2\n"), std::string::npos);
}

TEST(ObsTracer, FlowMacrosBindSpansIntoOneFlow) {
  if (!AMF_OBS_ENABLED)
    GTEST_SKIP() << "span macros are compiled out (AMF_OBS_ENABLED=0)";
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    AMF_SPAN_FLOW_START("test/request", 77);
    { AMF_SPAN_FLOW_STEP("test/enqueue", 77); }
    { AMF_SPAN_FLOW_END("test/reply", 77); }
  }
  {
    // Id 0 means "untraced": the span records, the flow binding does not.
    AMF_SPAN_FLOW_STEP("test/untraced", 0);
  }
  tracer.set_enabled(false);
  auto events = tracer.drain();
  ASSERT_EQ(events.size(), 4u);
  for (const auto& ev : events) {
    const std::string name = ev.name;
    if (name == "test/request") {
      EXPECT_EQ(ev.flow, 77u);
      EXPECT_EQ(ev.flow_phase, obs::FlowPhase::kStart);
      EXPECT_EQ(ev.arg, 77);  // the trace id doubles as a span arg
    } else if (name == "test/enqueue") {
      EXPECT_EQ(ev.flow, 77u);
      EXPECT_EQ(ev.flow_phase, obs::FlowPhase::kStep);
    } else if (name == "test/reply") {
      EXPECT_EQ(ev.flow, 77u);
      EXPECT_EQ(ev.flow_phase, obs::FlowPhase::kEnd);
    } else {
      EXPECT_EQ(name, "test/untraced");
      EXPECT_EQ(ev.flow, 0u);
      EXPECT_EQ(ev.flow_phase, obs::FlowPhase::kNone);
    }
  }
}

TEST(ObsExport, ChromeTraceEmitsFlowEvents) {
  std::vector<obs::SpanEvent> events(3);
  events[0] = {"request", "trace", 10.0, 50.0, 9, 9,
               obs::FlowPhase::kStart};
  events[1] = {"enqueue", "trace", 15.0, 5.0, 9, 9,
               obs::FlowPhase::kStep};
  events[2] = {"reply", "trace", 40.0, 10.0, 9, 9,
               obs::FlowPhase::kEnd};
  const std::string json = obs::to_chrome_trace(events);

  long braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  auto count = [&json](const std::string& needle) {
    long n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  // One flow event per span, bound by the shared name/cat/id triple.
  EXPECT_EQ(count("\"ph\":\"s\""), 1);
  EXPECT_EQ(count("\"ph\":\"t\""), 1);
  EXPECT_EQ(count("\"ph\":\"f\""), 1);
  EXPECT_EQ(count("\"name\":\"amf/request\""), 3);
  EXPECT_EQ(count("\"cat\":\"amf.flow\""), 3);
  EXPECT_EQ(count("\"id\":9"), 3);
  // Chrome requires the binding-point marker on step and finish.
  EXPECT_EQ(count("\"bp\":\"e\""), 2);
}

TEST(ObsExport, ZeroFlowEmitsNoFlowEvents) {
  std::vector<obs::SpanEvent> events(1);
  events[0] = {"plain", "jobs", 10.0, 50.0, 4, 0};
  const std::string json = obs::to_chrome_trace(events);
  EXPECT_EQ(json.find("amf.flow"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
}

TEST(ObsExport, PrometheusHelpLinesPresentAndEscaped) {
  obs::Registry reg;
  reg.counter("amf_test_helped_total", "counts stuff\nwith a \\ twist")
      .add(3);
  reg.gauge("amf_test_plain");  // no help: no HELP line
  const std::string text = obs::to_prometheus_text(reg.snapshot());
  // HELP precedes TYPE, with newline and backslash escaped per the
  // exposition format.
  EXPECT_NE(
      text.find("# HELP amf_test_helped_total counts stuff\\nwith a "
                "\\\\ twist\n# TYPE amf_test_helped_total counter\n"),
      std::string::npos);
  EXPECT_EQ(text.find("# HELP amf_test_plain"), std::string::npos);
  EXPECT_NE(text.find("# TYPE amf_test_plain gauge\n"), std::string::npos);
}

TEST(ObsExport, PrometheusNamesSanitized) {
  obs::Registry reg;
  reg.counter("amf.test-dotted/total").add(1);
  reg.gauge("0starts_with_digit").set(2.0);
  const std::string text = obs::to_prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("amf_test_dotted_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("_0starts_with_digit 2\n"), std::string::npos);
  EXPECT_EQ(text.find("amf.test"), std::string::npos);
  EXPECT_EQ(text.find("\n0starts"), std::string::npos);
}

namespace lint {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1))
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

/// promtool-style check of one exposition page: every line parses, TYPE
/// precedes its samples and appears once, histogram series are
/// cumulative with a +Inf bucket equal to _count, and a _sum exists.
void check_page(const std::string& text) {
  std::set<std::string> typed;
  std::set<std::string> histograms;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    SCOPED_TRACE("line " + std::to_string(lineno) + ": " + line);
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE");
      EXPECT_TRUE(valid_metric_name(name));
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram");
        EXPECT_TRUE(typed.insert(name).second)
            << "duplicate TYPE for " << name;
        if (type == "histogram") histograms.insert(name);
      }
      continue;
    }
    // Sample line: name[{labels}] value
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos);
    const std::string name =
        line.substr(0, brace == std::string::npos
                           ? space
                           : std::min(brace, space));
    EXPECT_TRUE(valid_metric_name(name));
    const std::string value_str = line.substr(line.rfind(' ') + 1);
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    ASSERT_TRUE(end != nullptr && *end == '\0')
        << "unparseable value " << value_str;
    values[name] = value;

    // Histogram series must follow their family's TYPE line.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          histograms.count(name.substr(0, name.size() - s.size())) > 0)
        family = name.substr(0, name.size() - s.size());
    }
    EXPECT_TRUE(typed.count(family) > 0)
        << "sample before TYPE for " << family;
    if (brace != std::string::npos && family + "_bucket" == name) {
      const std::size_t le = line.find("le=\"");
      ASSERT_NE(le, std::string::npos);
      const std::size_t close = line.find('"', le + 4);
      const std::string bound = line.substr(le + 4, close - le - 4);
      const double b = bound == "+Inf"
                           ? std::numeric_limits<double>::infinity()
                           : std::strtod(bound.c_str(), nullptr);
      buckets[family].emplace_back(b, value);
    }
  }
  for (const std::string& h : histograms) {
    SCOPED_TRACE("histogram " + h);
    const auto& series = buckets[h];
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_LT(series[i - 1].first, series[i].first);
      EXPECT_LE(series[i - 1].second, series[i].second);  // cumulative
    }
    EXPECT_TRUE(std::isinf(series.back().first)) << "missing +Inf bucket";
    ASSERT_TRUE(values.count(h + "_count") > 0);
    ASSERT_TRUE(values.count(h + "_sum") > 0);
    EXPECT_EQ(series.back().second, values[h + "_count"]);
  }
}

}  // namespace lint

TEST(ObsExport, PrometheusScrapePassesLint) {
  obs::Registry reg;
  reg.counter("amf_lint_events_total", "things that happened").add(12);
  reg.counter("amf_lint_bare_total").add(1);
  reg.gauge("amf_lint_depth", "queue depth right now").set(3.5);
  auto h = reg.histogram("amf_lint_wait_ms", "how long things waited");
  h.observe(0.2);
  h.observe(3.0);
  h.observe(250.0);
  auto empty = reg.histogram("amf_lint_idle_ms");
  (void)empty;  // zero-sample histograms must still lint
  lint::check_page(obs::to_prometheus_text(reg.snapshot()));
}

TEST(ObsSlo, BucketQuantileInterpolates) {
  std::array<std::uint64_t, obs::kHistogramBuckets> b{};
  EXPECT_EQ(obs::bucket_quantile(b, 0.5), 0.0);  // empty: no data

  b[10] = 100;
  const double lo = obs::Histogram::bucket_bound(9);
  const double hi = obs::Histogram::bucket_bound(10);
  const double q25 = obs::bucket_quantile(b, 0.25);
  const double q75 = obs::bucket_quantile(b, 0.75);
  EXPECT_GE(q25, lo);
  EXPECT_LE(q75, hi);
  EXPECT_LT(q25, q75);  // interpolation inside one bucket is monotone

  // Samples in the overflow bucket clamp to the largest finite bound.
  std::array<std::uint64_t, obs::kHistogramBuckets> inf{};
  inf[obs::kHistogramBuckets - 1] = 5;
  EXPECT_EQ(obs::bucket_quantile(inf, 0.99),
            obs::Histogram::bucket_bound(obs::kHistogramBuckets - 2));
}

TEST(ObsSlo, ConfigValidationThrows) {
  obs::Registry reg;
  obs::SloConfig cfg;
  cfg.windows = 0;
  EXPECT_THROW(obs::SloTracker(&reg, cfg), util::ContractError);
  cfg.windows = 2;
  cfg.fast_windows = 3;
  EXPECT_THROW(obs::SloTracker(&reg, cfg), util::ContractError);
  cfg.fast_windows = 1;
  cfg.error_budget = 0.0;
  EXPECT_THROW(obs::SloTracker(&reg, cfg), util::ContractError);
  cfg.error_budget = 0.01;
  EXPECT_THROW(obs::SloTracker(nullptr, cfg), util::ContractError);
  EXPECT_NO_THROW(obs::SloTracker(&reg, cfg));
}

TEST(ObsSlo, TickRingAndBurnRates) {
  // A local registry under the serving metric names the tracker reads.
  obs::Registry reg;
  auto lat = reg.histogram("amf_svc_turnaround_ms");
  auto served = reg.counter("amf_svc_solves_served_total");
  auto shed = reg.counter("amf_svc_rejects_total");

  obs::SloConfig cfg;
  cfg.window_s = 1.0;
  cfg.windows = 3;
  cfg.fast_windows = 1;
  cfg.p99_target_ms = 1.0;
  cfg.error_budget = 0.1;
  obs::SloTracker tracker(&reg, cfg);

  // The first tick only sets the baseline: pre-start traffic must not
  // count against the SLO.
  served.add(5);
  tracker.tick();
  EXPECT_EQ(tracker.report().windows_filled, 0u);
  EXPECT_EQ(tracker.report().served, 0u);

  // Window 1: 8 fast requests, 2 above the 1 ms target.
  for (int i = 0; i < 8; ++i) lat.observe(0.25);
  lat.observe(100.0);
  lat.observe(100.0);
  served.add(10);
  tracker.tick();
  obs::SloTracker::Report r = tracker.report();
  EXPECT_EQ(r.windows_filled, 1u);
  EXPECT_EQ(r.served, 10u);
  EXPECT_EQ(r.samples, 10u);
  EXPECT_LT(r.p50_ms, 1.0);
  EXPECT_GT(r.p99_ms, 10.0);
  // bad = 2 slow samples out of 10 requests: (2/10) / 0.1 budget = 2x.
  EXPECT_NEAR(r.burn_rate_slow, 2.0, 1e-9);
  EXPECT_NEAR(r.burn_rate_fast, 2.0, 1e-9);
  EXPECT_EQ(r.shed_rate, 0.0);

  // Window 2: clean latencies but half the traffic is shed.
  served.add(10);
  shed.add(10);
  tracker.tick();
  r = tracker.report();
  EXPECT_EQ(r.windows_filled, 2u);
  EXPECT_EQ(r.served, 20u);
  EXPECT_EQ(r.shed, 10u);
  EXPECT_NEAR(r.shed_rate, 10.0 / 30.0, 1e-9);
  // Fast horizon = last window only: 10 sheds / 20 requests / budget.
  EXPECT_NEAR(r.burn_rate_fast, 5.0, 1e-9);
  // Slow horizon = both windows: (10 sheds + 2 slow) / 30 / budget.
  EXPECT_NEAR(r.burn_rate_slow, 4.0, 1e-9);
  // Derived gauges are republished on the registry for /metrics.
  obs::Snapshot snap = reg.snapshot();
  EXPECT_NEAR(snap.gauge("amf_svc_slo_burn_rate_fast"), 5.0, 1e-9);
  EXPECT_NEAR(snap.gauge("amf_svc_slo_p50_ms"), r.p50_ms, 1e-9);
  EXPECT_EQ(snap.gauge("amf_svc_slo_windows"), 2.0);

  // Two idle ticks roll the ring (size 3): window 1's slow samples and
  // its latency data age out.
  tracker.tick();
  tracker.tick();
  r = tracker.report();
  EXPECT_EQ(r.windows_filled, 3u);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.served, 10u);
  EXPECT_EQ(r.shed, 10u);
  EXPECT_EQ(r.p99_ms, 0.0);
  EXPECT_NEAR(r.burn_rate_slow, 5.0, 1e-9);

  // to_json carries the report plus the configured targets.
  const std::string json = tracker.to_json();
  EXPECT_NE(json.find("\"p99_target_ms\":1"), std::string::npos);
  EXPECT_NE(json.find("\"error_budget\":0.1"), std::string::npos);
  EXPECT_NE(json.find("\"windows\":3"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ObsExport, MetricsJsonSplicesExtraMember) {
  obs::Registry reg;
  reg.counter("amf_test_c").add(1);
  const std::string json =
      obs::to_metrics_json(reg.snapshot(), "\"events\": [1, 2]");
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"amf_test_c\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"events\": [1, 2]"), std::string::npos);
  long braces = 0;
  for (char ch : json) braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
  EXPECT_EQ(braces, 0);
}

// End-to-end: a simulated run emits one sim/event span per reallocation
// point (plus nested core/flow children) and a matching per-event series.
TEST(ObsIntegration, SimulationSpansCoverEveryEvent) {
  auto cfg = workload::paper_default(1.0, 11);
  cfg.sites = 4;
  cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, 4);
  workload::Generator generator(cfg);
  auto trace = workload::generate_trace(generator, 0.8, 12);

  core::AmfAllocator policy;
  sim::Simulator simulator(policy, {});
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  simulator.run(trace);
  tracer.set_enabled(false);
  const auto events = tracer.drain();
  const auto& stats = simulator.stats();

  ASSERT_GT(stats.events, 0);
  EXPECT_EQ(simulator.event_series().size(),
            static_cast<std::size_t>(stats.events));
#if AMF_OBS_ENABLED
  int event_spans = 0;
  int fill_spans = 0;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "sim/event") ++event_spans;
    if (std::string(ev.name) == "core/progressive_fill") ++fill_spans;
  }
  EXPECT_EQ(event_spans, stats.events);
  EXPECT_EQ(fill_spans, stats.events);
  EXPECT_EQ(stats.spans_recorded, static_cast<long long>(events.size()));
  EXPECT_EQ(stats.spans_dropped, 0);
#else
  // Kill switch: the macros compiled out, so a run records nothing.
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(stats.spans_recorded, 0);
#endif
  // The engine's timing and series are tracing-independent.
  EXPECT_GT(stats.alloc_ms, 0.0);
  for (const auto& s : simulator.event_series()) EXPECT_GE(s.alloc_ms, 0.0);
}

}  // namespace
