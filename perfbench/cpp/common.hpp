// common.hpp — shared machinery of the repository benchmark: options,
// timing and percentiles, registry deltas, the traced run's chunks and
// span sink, and the result line.
//
// Every workload drives the library only through public calls. The
// per-layer numbers come from the benchmark's own timers and spans (kept
// by the library's obs::Tracer) around those calls, and from differences
// of the obs registry counters and histograms the library already
// exports; nothing is instrumented in src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

class Result;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the calling thread has consumed, in ms. The in-process
/// workloads time their single-threaded calls with it: it equals wall
/// time while the thread runs, and leaves out the time other load on a
/// shared host keeps it descheduled.
double thread_cpu_ms();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory, relative to the repository root the benchmark runs in,
  /// for run artefacts: serve_routed's journals and the Chrome trace.
  std::string out_dir = ".bench_build/out";
};

/// Quantile q in [0, 1] with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

/// True when both allocations hold bit-identical share matrices.
bool same_bits(const amf::core::Allocation& a, const amf::core::Allocation& b);

/// Peak resident set size of this process (MB).
double peak_rss_mb();

/// Takes peak_rss_mb once the measured loop has completed `at_ops`
/// operations. The workloads' state grows with the operations done, so a
/// reading at the end of the run would grow with throughput and make
/// every speed-up look like a memory regression. Client threads share
/// one probe.
class RssProbe {
 public:
  explicit RssProbe(long long at_ops) : at_ops_(at_ops) {}
  /// Counts one completed operation.
  void count() {
    if (done_.fetch_add(1, std::memory_order_relaxed) + 1 == at_ops_)
      mb_.store(peak_rss_mb(), std::memory_order_relaxed);
  }
  /// Reports peak_rss_mb; a run that fell short of `at_ops` reports the
  /// peak so far and says so on stderr.
  void report(Result& r) const;

 private:
  long long at_ops_;
  std::atomic<long long> done_{0};
  std::atomic<double> mb_{0.0};
};

/// Outcome of one run: the counts and metrics of the final JSON line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Counts `n` attempted operations.
  void attempt(long long n = 1) { attempted_ += n; }
  /// Counts a failed operation (never filtered out) and says why on
  /// stderr. Any failure makes the run incorrect.
  void fail(const std::string& why);
  /// Marks the run incorrect without an operation failing (a check on
  /// the run itself, such as count determinism, did not hold).
  void incorrect(const std::string& why);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

  /// The final line: {"correct","attempted","failed","metrics"}.
  std::string line() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
};

/// Latency samples of one operation kind with their completion times.
/// The median is over all samples. p99 is the median of the p99s of
/// consecutive blocks of kBlock samples (each resolves its p99 with 10
/// samples beyond it), so a burst of host noise moves one block rather
/// than the result. The sample count goes to stderr.
struct Latency {
  static constexpr std::size_t kBlock = 1000;
  struct Sample {
    double t_s;  ///< completion, seconds since the measured loop began
    double ms;
  };
  std::vector<Sample> samples;
  void add(double t_s, double ms) { samples.push_back({t_s, ms}); }
  void merge(const Latency& other);
  void report(Result& r, const std::string& prefix, const char* what) const;
};

/// Operations per second: the median over the whole 1 s windows of the
/// measured loop of the operations completed in each.
double median_rate(const std::vector<const Latency*>& ops);

/// Exact values of the registry counters the flow and core layers
/// export. Differences over a fixed operation sequence are the benchmark's
/// exact counts: they must repeat bit-for-bit for the same seed.
using Counts = std::map<std::string, long long>;
Counts read_counts();
Counts operator-(const Counts& after, const Counts& before);
Counts& operator+=(Counts& acc, const Counts& delta);
/// One line "name=value ..." for logs and digests.
std::string format_counts(const Counts& c);
/// Reports the flow.* and core.* per-layer metrics derived from counts
/// taken over `solves` allocator calls.
void report_counts(Result& r, const Counts& c, double solves);

/// Difference of one registry histogram between two snapshots.
struct HistDelta {
  double mean = 0.0;
  double p50 = 0.0;  ///< log2-bucket resolution, interpolated in the bucket
};
HistDelta hist_delta(const amf::obs::Snapshot& before,
                     const amf::obs::Snapshot& after, const char* name);

/// The measured loop's time, cut into chunks of about 1 s. Time spent
/// between chunks counts in no metric; the workloads drain the tracer
/// there, and replay_churn times more set-ups. A traced run alternates
/// untraced and traced chunks, so both phases see the same host
/// conditions. In the traced chunks the library's tracer
/// (obs::Tracer::global(), which every AMF_SPAN site in src/ records
/// into) is on; the throughput they lose against the untraced chunks is
/// the tracing overhead.
/// Client threads share one Chunks; only begin() and end() change it.
class Chunks {
 public:
  explicit Chunks(const Options& opt);
  /// Starts the next chunk and switches the tracer to its phase; false
  /// once every chunk has run.
  bool begin();
  bool traced() const { return traced_; }
  /// True once the current chunk's time is up.
  bool over(Clock::time_point now) const { return now >= end_; }
  /// Seconds of chunk time before `t`, which lies in the current chunk.
  double elapsed_s(Clock::time_point t) const {
    return done_s_ + s_between(chunk_start_, t);
  }
  /// Ends the current chunk, in which `ops` operations completed, and
  /// turns the tracer off.
  void end(long long ops);
  /// Reports obs.trace_overhead_pct.
  void report_overhead(Result& r) const;

 private:
  bool trace_;
  int chunks_;
  double chunk_s_;
  int index_ = -1;
  bool traced_ = false;
  double done_s_ = 0.0;
  Clock::time_point chunk_start_;
  Clock::time_point end_;
  double seconds_[2] = {0.0, 0.0};
  long long ops_[2] = {0, 0};
};

/// What a traced run keeps of the tracer's events. Each drain takes the
/// events out of the tracer and adds up every layer's self time (span
/// time not covered by spans nested in it on the same thread; the layer
/// is the span name's prefix before '/') and the durations of the span
/// names it watches. The first drain's events (the first traced chunk's,
/// up to a cap) go to the trace file.
class TraceSink {
 public:
  explicit TraceSink(std::vector<std::string> watched = {});
  /// Drains obs::Tracer::global(). Call only when no thread can still be
  /// recording: the tracer is off and every traced span has ended.
  void drain();
  /// Durations (ms) of every drained span with this watched name.
  const std::vector<double>& durations_ms(const std::string& name) const;
  /// Writes <out_dir>/trace-<workload>.json with obs::to_chrome_trace
  /// (loadable in Perfetto), each layer's self time (ms) under
  /// "otherData".
  void write(const Options& opt) const;

 private:
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, double> self_ms_;
  std::vector<amf::obs::SpanEvent> kept_;
  std::uint64_t dropped_ = 0;
  std::size_t events_ = 0;
};

/// Guards the assumption behind timing with thread_cpu_ms(): the timed
/// calls run wholly on the calling thread and never block. Spans the
/// measured loop; finish() marks the run incorrect when other threads of
/// the process used CPU time (work handed off would not be counted) or
/// when the thread switched out voluntarily (time blocked on a lock, I/O
/// or a sleep would not be counted). Preemption and host steal are what
/// the CPU clock is meant to leave out, so the wall-to-CPU ratio is only
/// noted on stderr.
class CpuClockCheck {
 public:
  CpuClockCheck();
  void finish(Result& r, const char* what) const;

 private:
  Clock::time_point wall_;
  double thread_ms_;
  double process_ms_;
  long voluntary_switches_;
};

/// Informational line on stderr, prefixed with the benchmark name.
void note(const std::string& text);

/// Set-up times of one run; the benchmark's setup_s is their median.
/// Each timed call builds a full ready state from scratch.
class SetupTimes {
 public:
  /// `cpu` times each call with thread_cpu_ms() instead of the wall clock.
  explicit SetupTimes(bool cpu) : cpu_(cpu) {}

  template <typename Setup>
  void time(Setup&& setup) {
    const auto t0 = Clock::now();
    const double c0 = thread_cpu_ms();
    setup();
    s_.push_back(cpu_ ? (thread_cpu_ms() - c0) / 1e3
                      : s_between(t0, Clock::now()));
  }

  /// Notes the times' quartiles on stderr and returns their median (s).
  double median_s() const;

 private:
  bool cpu_;
  std::vector<double> s_;
};

/// Times `reps` calls of `setup`; the state of the last call is the one
/// the run uses. `teardown` (untimed) releases the previous state before
/// the next call.
template <typename Setup, typename Teardown>
void time_setups(SetupTimes& times, int reps, Setup&& setup,
                 Teardown&& teardown) {
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    times.time(setup);
  }
}

// Workloads (one translation unit each).
void run_solve_cold(const Options& opt, Result& result);
void run_replay_churn(const Options& opt, Result& result);
void run_serve_routed(const Options& opt, Result& result);

}  // namespace perfbench
