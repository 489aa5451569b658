// F15 — Observability overhead: the cost of carrying instrumentation.
//
// Two claims are measured, matching the overhead model in DESIGN.md §9:
//
//   * disabled overhead (gate: a few percent) — twin kernels with
//     identical math, one carrying an AMF_SPAN + registry counter per
//     outer iteration, one bare. With the tracer disabled a span costs
//     one relaxed atomic load and a branch; the counter costs one relaxed
//     fetch_add on its registry cell. Min-of-N over interleaved reps
//     cancels frequency drift.
//   * enabled overhead (gate: ~10%) — the same simulated trace replayed
//     with tracing off and on; spans fire at event/solve granularity, so
//     the relative cost stays small against real solver work.
//
// Compiled with AMF_OBS_ENABLED=0 the span macros vanish and both ratios
// collapse to ~1 — running this bench in the kill-switch CI leg proves
// the switch actually kills the cost.
//
//   bench_f15_obs_overhead [--smoke] [--json PATH]
//                          [--max-disabled X] [--max-enabled Y]
//
// CSV goes to stdout; a machine-readable summary is written to PATH
// (default BENCH_obs.json). The --max-* flags turn the measurements into
// exit-code gates (0 = no gate).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The twin kernels share the hot inner loop as one non-inlined function,
// so both execute the exact same machine code for the math — the measured
// difference is the instrumentation alone, not code-alignment noise
// between two separately compiled copies of the loop. The xorshift chain
// is serially dependent, so the work cannot be reordered or vectorized
// around the span.
constexpr int kInner = 128;

__attribute__((noinline)) std::uint64_t burn(std::uint64_t x, double* acc) {
  double local = 0.0;
  for (int k = 0; k < kInner; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    local += static_cast<double>(x & 0xffff) * 1e-4;
  }
  *acc += local;
  return x;
}

double kernel_plain(int outer, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  double acc = 0.0;
  for (int i = 0; i < outer; ++i) x = burn(x, &acc);
  return acc;
}

// Instrumented exactly the way the solver hot loops are (see
// flow/parametric.cpp): a scoped span per iteration, counts accumulated
// in a local and published to the registry once at the end.
double kernel_instrumented(int outer, std::uint64_t seed,
                           amf::obs::Counter& counter) {
  std::uint64_t x = seed | 1;
  double acc = 0.0;
  long long iters = 0;
  for (int i = 0; i < outer; ++i) {
    AMF_SPAN_ARG("bench/kernel_iter", "i", i);
    x = burn(x, &acc);
    ++iters;
  }
  counter.add(iters);
  return acc;
}

double run_sim_ms(const amf::core::Allocator& policy,
                  const amf::workload::Trace& trace) {
  amf::sim::Simulator simulator(policy, {});
  const auto start = Clock::now();
  simulator.run(trace);
  return ms_since(start);
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

// Keep kernel results observable so the twins cannot be folded away.
volatile double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  bool smoke = false;
  std::string json_path = "BENCH_obs.json";
  double max_disabled = 0.0, max_enabled = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-disabled") == 0 && i + 1 < argc) {
      max_disabled = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-enabled") == 0 && i + 1 < argc) {
      max_enabled = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_f15_obs_overhead [--smoke] [--json PATH] "
                   "[--max-disabled X] [--max-enabled Y]\n";
      return 2;
    }
  }

  bench::preamble(
      "F15",
      "observability overhead: compiled-in-but-disabled and spans-enabled",
      {"twin kernels (identical math, one instrumented) measure the",
       "disabled span+counter cost; a replayed trace with tracing off/on",
       "measures the enabled cost at event/solve granularity.",
       "min-of-N interleaved reps; overhead = instrumented/plain - 1"});

  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();

  // --- Part 1: disabled overhead on the twin kernels. -------------------
  const int outer = smoke ? 40000 : 200000;
  const int reps = smoke ? 5 : 9;
  auto counter = obs::Registry::global().counter(
      "amf_bench_kernel_iters", "f15 twin-kernel outer iterations");
  // Warm up both twins (page in code, warm the counter cell).
  g_sink = kernel_plain(outer / 4, 42) + kernel_instrumented(outer / 4, 42,
                                                             counter);
  double plain_ms = 1e300, instr_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    g_sink = kernel_instrumented(outer, 42, counter);
    instr_ms = std::min(instr_ms, ms_since(t0));
    t0 = Clock::now();
    g_sink = kernel_plain(outer, 42);
    plain_ms = std::min(plain_ms, ms_since(t0));
  }
  const double disabled_overhead = instr_ms / plain_ms - 1.0;

  // --- Part 2: enabled overhead on a simulated trace. -------------------
  auto cfg = workload::paper_default(1.0, 15);
  cfg.sites = 10;
  cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, 10);
  workload::Generator generator(cfg);
  auto trace = workload::generate_trace(generator, 1.0, smoke ? 30 : 60);
  core::AmfAllocator policy;

  run_sim_ms(policy, trace);  // warm-up run
  // The per-run time is a few ms, so a single rep is at the mercy of
  // scheduler noise; min-of-N with the off/on order alternating each rep
  // keeps one unlucky slice from deciding either side of the ratio.
  const int sim_reps = smoke ? 8 : 10;
  double off_ms = 1e300, on_ms = 1e300;
  long long spans = 0;
  for (int r = 0; r < sim_reps; ++r) {
    const bool on_first = (r % 2) != 0;
    for (int half = 0; half < 2; ++half) {
      const bool on = (half == 0) == on_first;
      tracer.set_enabled(on);
      const double ms = run_sim_ms(policy, trace);
      (on ? on_ms : off_ms) = std::min(on ? on_ms : off_ms, ms);
    }
    tracer.set_enabled(false);
    spans = static_cast<long long>(tracer.recorded());
    tracer.clear();  // keep the rings empty so no rep ever drops
  }
  const double enabled_overhead = on_ms / off_ms - 1.0;

  util::CsvWriter csv(std::cout, {"section", "base_ms", "instrumented_ms",
                                  "overhead", "spans"});
  csv.row({"kernel_disabled", fmt(plain_ms), fmt(instr_ms),
           fmt(disabled_overhead), "0"});
  csv.row({"sim_enabled", fmt(off_ms), fmt(on_ms), fmt(enabled_overhead),
           std::to_string(spans)});

  const bool disabled_ok =
      max_disabled <= 0.0 || disabled_overhead <= max_disabled;
  const bool enabled_ok = max_enabled <= 0.0 || enabled_overhead <= max_enabled;

  std::ostringstream json;
  json << "{\n  \"bench\": \"f15_obs_overhead\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"obs_enabled\": "
       << (AMF_OBS_ENABLED ? "true" : "false") << ",\n  \"kernel\": {"
       << "\"plain_ms\": " << fmt(plain_ms)
       << ", \"instrumented_ms\": " << fmt(instr_ms)
       << ", \"disabled_overhead\": " << fmt(disabled_overhead)
       << "},\n  \"sim\": {\"off_ms\": " << fmt(off_ms)
       << ", \"on_ms\": " << fmt(on_ms)
       << ", \"enabled_overhead\": " << fmt(enabled_overhead)
       << ", \"spans\": " << spans << "},\n  \"pass\": "
       << ((disabled_ok && enabled_ok) ? "true" : "false") << "\n}\n";
  std::ofstream(json_path) << json.str();

  if (!disabled_ok) {
    std::cerr << "F15: disabled instrumentation overhead "
              << disabled_overhead * 100.0 << "% exceeds the "
              << max_disabled * 100.0 << "% gate\n";
    return 1;
  }
  if (!enabled_ok) {
    std::cerr << "F15: enabled tracing overhead " << enabled_overhead * 100.0
              << "% exceeds the " << max_enabled * 100.0 << "% gate\n";
    return 1;
  }
  return 0;
}
