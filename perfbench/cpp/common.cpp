#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "obs/export.hpp"

namespace perfbench {

namespace {

/// Length of the measured loop's chunks (s).
constexpr double kChunkS = 1.0;
/// Events of the first drain a trace file keeps (about 8 MB of JSON).
constexpr std::size_t kTraceFileEvents = 1 << 16;
/// CpuClockCheck margins: CPU time other threads may use, and voluntary
/// switches the timed thread may make, over one measured loop.
constexpr double kOtherThreadsMs = 20.0;
constexpr long kVoluntarySwitches = 10;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Registry counters of the flow and core layers read as exact counts.
const char* const kCountNames[] = {
    "amf_core_alloc_cold",       "amf_core_alloc_warm",
    "amf_core_fill_rounds",      "amf_core_fills",
    "amf_core_ws_deltas",        "amf_core_ws_invalidate",
    "amf_core_ws_prime",         "amf_flow_augmenting_paths",
    "amf_flow_bisection_steps",  "amf_flow_inc_compactions",
    "amf_flow_level_solves",     "amf_flow_maxflow_calls",
    "amf_flow_maxflow_phases",   "amf_flow_memo_hits",
    "amf_flow_newton_iters",     "amf_flow_probe_cold",
    "amf_flow_probe_warm",       "amf_flow_probes",
};

}  // namespace

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

bool same_bits(const amf::core::Allocation& a, const amf::core::Allocation& b) {
  if (a.jobs() != b.jobs()) return false;
  for (int j = 0; j < a.jobs(); ++j) {
    const auto& x = a.shares()[static_cast<std::size_t>(j)];
    const auto& y = b.shares()[static_cast<std::size_t>(j)];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // includes the peak of the process that started this one (run.py's
  // Python interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void RssProbe::report(Result& r) const {
  const long long done = done_.load();
  if (done < at_ops_)
    note("peak_rss_mb: the run completed " + std::to_string(done) + " of the " +
         std::to_string(at_ops_) + " operations it is taken after");
  r.metric("peak_rss_mb", done < at_ops_ ? peak_rss_mb() : mb_.load(), "MB");
}

void note(const std::string& text) {
  std::cerr << "perfbench: " << text << std::endl;
}

double SetupTimes::median_s() const {
  note("setup_s over " + std::to_string(s_.size()) + " set-ups: min " +
       num(quantile(s_, 0.0)) + ", q1 " + num(quantile(s_, 0.25)) +
       ", median " + num(quantile(s_, 0.5)) + ", q3 " +
       num(quantile(s_, 0.75)) + ", max " + num(quantile(s_, 1.0)));
  return median(s_);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value))
    throw std::logic_error("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit};
}

void Result::fail(const std::string& why) {
  ++failed_;
  correct_ = false;
  if (failed_ <= 20) note("FAILED: " + why);
}

void Result::incorrect(const std::string& why) {
  correct_ = false;
  note("INCORRECT: " + why);
}

std::string Result::line() const {
  std::string out = "{\"correct\": ";
  out += correct_ && failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Latency::merge(const Latency& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

void Latency::report(Result& r, const std::string& prefix,
                     const char* what) const {
  std::vector<Sample> by_time = samples;
  std::sort(by_time.begin(), by_time.end(),
            [](const Sample& a, const Sample& b) { return a.t_s < b.t_s; });
  std::vector<double> all, block, block_p99;
  for (const Sample& s : by_time) {
    all.push_back(s.ms);
    block.push_back(s.ms);
    if (block.size() == kBlock) {
      block_p99.push_back(quantile(std::move(block), 0.99));
      block.clear();
    }
  }
  r.metric(prefix + "_p50_ms", median(all), "ms");
  r.metric(prefix + "_p99_ms",
           block_p99.empty() ? quantile(all, 0.99) : median(block_p99), "ms");
  note(std::string(what) + ": " + std::to_string(all.size()) + " samples, " +
       std::to_string(block_p99.size()) + " blocks of " +
       std::to_string(kBlock) + " for p99" +
       (block_p99.empty() ? " (too few: p99 of all samples)" : ""));
}

double median_rate(const std::vector<const Latency*>& ops) {
  double end = 0.0;
  for (const Latency* l : ops)
    for (const auto& s : l->samples) end = std::max(end, s.t_s);
  const auto windows = static_cast<std::size_t>(end);  // whole seconds only
  if (windows == 0) {
    std::size_t n = 0;
    for (const Latency* l : ops) n += l->samples.size();
    return end > 0.0 ? static_cast<double>(n) / end : 0.0;
  }
  std::vector<double> count(windows, 0.0);
  for (const Latency* l : ops)
    for (const auto& s : l->samples)
      if (s.t_s < static_cast<double>(windows))
        count[static_cast<std::size_t>(s.t_s)] += 1.0;
  return median(std::move(count));
}

Counts read_counts() {
  auto& reg = amf::obs::Registry::global();
  Counts c;
  for (const char* name : kCountNames) c[name] = reg.counter(name).value();
  return c;
}

Counts operator-(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

Counts& operator+=(Counts& acc, const Counts& delta) {
  for (const auto& [name, v] : delta) acc[name] += v;
  return acc;
}

std::string format_counts(const Counts& c) {
  std::string out;
  for (const auto& [name, v] : c) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(v);
  }
  return out;
}

void report_counts(Result& r, const Counts& c, double solves) {
  auto per = [&](const char* name, double denom) {
    return denom > 0.0 ? static_cast<double>(c.at(name)) / denom : 0.0;
  };
  auto sum = [&](const char* a, const char* b) {
    return static_cast<double>(c.at(a) + c.at(b));
  };
  r.metric("flow.maxflow_calls_per_solve", per("amf_flow_maxflow_calls", solves),
           "1/solve");
  r.metric("flow.newton_iters_per_solve", per("amf_flow_newton_iters", solves),
           "1/solve");
  r.metric("flow.dinic_phases_per_solve", per("amf_flow_maxflow_phases", solves),
           "1/solve");
  r.metric("flow.augmenting_paths_per_solve",
           per("amf_flow_augmenting_paths", solves), "1/solve");
  r.metric("flow.compactions_per_solve", per("amf_flow_inc_compactions", solves),
           "1/solve");
  r.metric("flow.warm_probe_share",
           per("amf_flow_probe_warm",
               sum("amf_flow_probe_warm", "amf_flow_probe_cold")),
           "ratio");
  r.metric("core.fill_rounds_per_solve",
           per("amf_core_fill_rounds",
               static_cast<double>(c.at("amf_core_fills"))),
           "1/solve");
  r.metric("core.warm_hit_ratio",
           per("amf_core_alloc_warm",
               sum("amf_core_alloc_warm", "amf_core_alloc_cold")),
           "ratio");
  r.metric("core.ws_invalidations", per("amf_core_ws_invalidate", solves),
           "1/solve");
}

HistDelta hist_delta(const amf::obs::Snapshot& before,
                     const amf::obs::Snapshot& after, const char* name) {
  HistDelta d;
  const auto* a = after.histogram(name);
  if (a == nullptr) return d;
  const auto* b = before.histogram(name);
  std::array<double, amf::obs::kHistogramBuckets> buckets{};
  double total = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = static_cast<double>(a->buckets[i]) -
                 (b != nullptr ? static_cast<double>(b->buckets[i]) : 0.0);
    total += buckets[i];
  }
  const double n_b = b != nullptr ? static_cast<double>(b->stats.count()) : 0;
  const double sum_b = b != nullptr ? b->stats.sum() : 0.0;
  const double count = static_cast<double>(a->stats.count()) - n_b;
  if (count <= 0.0) return d;
  d.mean = (a->stats.sum() - sum_b) / count;
  // Median bucket, interpolated geometrically inside its (lo, hi] range.
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (seen + buckets[i] < total / 2.0) {
      seen += buckets[i];
      continue;
    }
    using H = amf::obs::Histogram;
    const double hi = H::bucket_bound(i);
    const double lo = i == 0 ? hi / 2.0 : H::bucket_bound(i - 1);
    const double frac = buckets[i] > 0 ? (total / 2.0 - seen) / buckets[i] : 0;
    d.p50 = std::isfinite(hi) ? lo * std::pow(hi / lo, frac) : lo;
    break;
  }
  return d;
}

Chunks::Chunks(const Options& opt)
    : trace_(opt.trace),
      chunks_(std::max(opt.trace ? 2 : 1,
                       static_cast<int>(std::lround(opt.seconds / kChunkS)))),
      chunk_s_(opt.seconds / chunks_) {}

bool Chunks::begin() {
  if (++index_ >= chunks_) return false;
  traced_ = trace_ && index_ % 2 == 1;
  amf::obs::Tracer::global().set_enabled(traced_);
  chunk_start_ = Clock::now();
  end_ = chunk_start_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(chunk_s_));
  return true;
}

void Chunks::end(long long ops) {
  const double s = s_between(chunk_start_, Clock::now());
  amf::obs::Tracer::global().set_enabled(false);
  done_s_ += s;
  seconds_[traced_ ? 1 : 0] += s;
  ops_[traced_ ? 1 : 0] += ops;
}

void Chunks::report_overhead(Result& r) const {
  const double untraced =
      seconds_[0] > 0.0 ? static_cast<double>(ops_[0]) / seconds_[0] : 0.0;
  const double traced =
      seconds_[1] > 0.0 ? static_cast<double>(ops_[1]) / seconds_[1] : 0.0;
  r.metric("obs.trace_overhead_pct",
           untraced > 0.0 ? 100.0 * (untraced - traced) / untraced : 0.0, "%");
}

TraceSink::TraceSink(std::vector<std::string> watched) {
  for (auto& name : watched) durations_[std::move(name)];
}

void TraceSink::drain() {
  auto& tracer = amf::obs::Tracer::global();
  dropped_ += tracer.dropped();  // drain() resets it
  std::vector<amf::obs::SpanEvent> events = tracer.drain();
  events_ += events.size();
  // Events come sorted by start, enclosing spans first, so on each
  // thread a span's parent is the innermost earlier span still open.
  struct Open {
    double end_us;
    std::size_t index;
  };
  std::map<int, std::vector<Open>> open;
  std::vector<double> child_us(events.size(), 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.instant()) continue;
    auto& stack = open[ev.tid];
    while (!stack.empty() && stack.back().end_us <= ev.ts_us) stack.pop_back();
    if (!stack.empty()) child_us[stack.back().index] += ev.dur_us;
    stack.push_back({ev.ts_us + ev.dur_us, i});
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.instant()) continue;
    const std::string name = ev.name;
    self_ms_[name.substr(0, name.find('/'))] += (ev.dur_us - child_us[i]) / 1e3;
    if (auto it = durations_.find(name); it != durations_.end())
      it->second.push_back(ev.dur_us / 1e3);
  }
  if (kept_.empty()) {
    kept_ = std::move(events);
    if (kept_.size() > kTraceFileEvents) kept_.resize(kTraceFileEvents);
  }
}

const std::vector<double>& TraceSink::durations_ms(
    const std::string& name) const {
  return durations_.at(name);
}

void TraceSink::write(const Options& opt) const {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  std::string out = amf::obs::to_chrome_trace(kept_);
  // to_chrome_trace closes its object with "]}\n"; the summary goes in
  // before the last brace as the trace format's "otherData".
  const std::string tail = "]}\n";
  if (out.size() < tail.size() ||
      out.compare(out.size() - tail.size(), tail.size(), tail) != 0)
    throw std::runtime_error("unexpected end of the Chrome trace");
  out.resize(out.size() - 2);
  std::string self, summary;
  for (const auto& [layer, ms] : self_ms_) {
    self += (self.empty() ? "\"" : ",\"") + layer + "\":" + num(ms);
    summary += " " + layer + "=" + num(ms);
  }
  out += ",\"otherData\":{\"workload\":\"" + opt.workload +
         "\",\"seed\":" + std::to_string(opt.seed) +
         ",\"events\":" + std::to_string(events_) +
         ",\"events_in_file\":" + std::to_string(kept_.size()) +
         ",\"dropped\":" + std::to_string(dropped_) + ",\"self_ms\":{" +
         self + "}}}\n";
  if (!amf::obs::write_text_file(path, out))
    throw std::runtime_error("cannot write trace " + path);
  note("trace written to " + path + " (" + std::to_string(kept_.size()) +
       " of " + std::to_string(events_) + " events, " +
       std::to_string(dropped_) + " dropped); self time (ms):" + summary);
}

namespace {

double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

long thread_voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

}  // namespace

CpuClockCheck::CpuClockCheck()
    : wall_(Clock::now()),
      thread_ms_(thread_cpu_ms()),
      process_ms_(process_cpu_ms()),
      voluntary_switches_(thread_voluntary_switches()) {}

void CpuClockCheck::finish(Result& r, const char* what) const {
  const double wall_ms = ms_between(wall_, Clock::now());
  const double thread_ms = thread_cpu_ms() - thread_ms_;
  const double other_ms = process_cpu_ms() - process_ms_ - thread_ms;
  const long switches = thread_voluntary_switches() - voluntary_switches_;
  note(std::string(what) + " measured loop: wall/cpu " +
       num(thread_ms > 0.0 ? wall_ms / thread_ms : 0.0) + ", other threads " +
       num(other_ms) + " ms cpu, " + std::to_string(switches) +
       " voluntary switches");
  // Margins: clock read granularity and the odd page-fault wait.
  if (other_ms > kOtherThreadsMs + 0.01 * thread_ms)
    r.incorrect(std::string(what) + ": other threads used " + num(other_ms) +
                " ms of CPU while the calling thread's CPU clock timed the "
                "calls; time them with the wall clock");
  if (switches > kVoluntarySwitches)
    r.incorrect(std::string(what) + ": the timed thread blocked " +
                std::to_string(switches) +
                " times; its CPU clock leaves that time out");
}

}  // namespace perfbench
