// F14 — Incremental solve pipeline: warm vs cold event throughput.
//
// Runs the same arrival trace through the discrete-event simulator with
// the from-scratch engine (every reallocation point rebuilds the
// allocation problem and the flow network) and with the incremental
// pipeline (one problem + one persistent solver workspace, fed per-event
// deltas), timed as "warm". The incremental engine's contract is exact
// replay: every record and run statistic must agree bit-for-bit with the
// from-scratch engine, and it is checked at every sweep point.
//
// Large sweep points replay a fixed event budget (SimulatorConfig::
// max_events) so both engines price the identical event prefix without
// hour-long cold runs.
//
//   bench_f14_incremental [--smoke] [--json PATH] [--min-speedup X]
//
// CSV goes to stdout; a machine-readable summary is written to PATH
// (default BENCH_incremental.json). Exits non-zero when a point's warm
// run differs from its cold run, and with --min-speedup also unless the
// best observed warm/cold ratio reaches X (the CI smoke gate).
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"

namespace {

struct SizePoint {
  int jobs = 0;
  int sites = 0;
  double load = 1.0;
  int max_events = 0;  // 0 = replay the whole trace
};

struct RunResult {
  std::vector<amf::sim::JobRecord> records;
  amf::sim::RunStats stats;
  double ms = 0.0;
};

RunResult run_once(const amf::core::Allocator& policy,
                   const amf::workload::Trace& trace, bool incremental,
                   int max_events) {
  amf::sim::SimulatorConfig cfg;
  cfg.incremental = incremental;
  cfg.max_events = max_events;
  amf::sim::Simulator simulator(policy, cfg);
  auto start = std::chrono::steady_clock::now();
  RunResult out;
  out.records = simulator.run(trace);
  auto stop = std::chrono::steady_clock::now();
  out.stats = simulator.stats();
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

/// Bitwise agreement between two runs: the incremental engine's contract
/// is exact equality, not tolerance.
bool identical(const RunResult& a, const RunResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].id != b.records[i].id ||
        a.records[i].completion != b.records[i].completion)
      return false;
  }
  return a.stats.events == b.stats.events &&
         a.stats.makespan == b.stats.makespan &&
         a.stats.total_churn == b.stats.total_churn &&
         a.stats.aggregate_drift == b.stats.aggregate_drift &&
         a.stats.time_avg_jain == b.stats.time_avg_jain &&
         a.stats.avg_utilization == b.stats.avg_utilization;
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  bool smoke = false;
  std::string json_path = "BENCH_incremental.json";
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_f14_incremental [--smoke] [--json PATH] "
                   "[--min-speedup X]\n";
      return 2;
    }
  }

  bench::preamble(
      "F14",
      "incremental solve pipeline: warm vs cold event throughput",
      {"same trace through the from-scratch and the incremental engine",
       "warm = incremental engine, verified bit-for-bit against cold at",
       "every point; speedup = cold_ms / warm_ms",
       "sparse locality (2-4 sites per job), saturating load"});

  // Sparse locality: each job touches a handful of the sites, so the
  // active nonzero count stays far below n*m and the incremental path's
  // O(changes) event cost can show against the cold O(n*m) rebuild. The
  // two largest points replay a fixed event budget — a full cold replay
  // at n = 5000 would take hours and measure nothing extra.
  const std::vector<SizePoint> sweep =
      smoke ? std::vector<SizePoint>{{120, 48, 1.0, 0}, {300, 96, 1.0, 0}}
            : std::vector<SizePoint>{{400, 128, 1.0, 0},
                                     {1000, 192, 1.0, 0},
                                     {2500, 256, 1.0, 1200},
                                     {5000, 384, 1.0, 800}};

  core::AmfAllocator amf_policy;
  util::CsvWriter csv(
      std::cout,
      {"jobs", "sites", "events", "cold_ms", "warm_ms",
       "cold_events_per_sec", "warm_events_per_sec", "speedup", "verified"});

  std::ostringstream json;
  json << "{\n  \"bench\": \"f14_incremental\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"results\": [\n";
  double best_speedup = 0.0;
  bool all_verified = true;
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const SizePoint& point = sweep[p];
    auto cfg = workload::paper_default(0.9, 14000 + p);
    cfg.sites = point.sites;
    cfg.sites_per_job_min = 2;
    cfg.sites_per_job_max = 4;
    workload::Generator gen(cfg);
    auto trace = workload::generate_trace(gen, point.load, point.jobs);

    auto cold = run_once(amf_policy, trace, /*incremental=*/false,
                         point.max_events);
    auto warm = run_once(amf_policy, trace, /*incremental=*/true,
                         point.max_events);
    const bool ok = identical(cold, warm);
    all_verified = all_verified && ok;
    const double speedup = warm.ms > 0.0 ? cold.ms / warm.ms : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    const double events = cold.stats.events;
    const double cold_eps = cold.ms > 0.0 ? events / (cold.ms / 1e3) : 0.0;
    const double warm_eps = warm.ms > 0.0 ? events / (warm.ms / 1e3) : 0.0;

    csv.row({std::to_string(point.jobs), std::to_string(point.sites),
             std::to_string(cold.stats.events), fmt(cold.ms), fmt(warm.ms),
             fmt(cold_eps), fmt(warm_eps), fmt(speedup), ok ? "1" : "0"});
    json << "    {\"jobs\": " << point.jobs << ", \"sites\": " << point.sites
         << ", \"events\": " << cold.stats.events
         << ", \"max_events\": " << point.max_events
         << ", \"cold_ms\": " << fmt(cold.ms)
         << ", \"warm_ms\": " << fmt(warm.ms)
         << ", \"cold_events_per_sec\": " << fmt(cold_eps)
         << ", \"warm_events_per_sec\": " << fmt(warm_eps)
         << ", \"speedup\": " << fmt(speedup)
         << ", \"verified\": " << (ok ? "true" : "false") << "}"
         << (p + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"best_speedup\": " << fmt(best_speedup)
       << ",\n  \"min_speedup_required\": " << fmt(min_speedup)
       << ",\n  \"all_verified\": " << (all_verified ? "true" : "false")
       << "\n}\n";

  std::ofstream out(json_path);
  out << json.str();
  out.close();
  std::cerr << "# wrote " << json_path << "\n";

  if (!all_verified) {
    std::cerr << "F14: incremental run disagrees with the from-scratch "
                 "engine — bit-for-bit contract violated\n";
    return 3;
  }
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::cerr << "F14: best speedup " << best_speedup
              << "x below required " << min_speedup << "x\n";
    return 4;
  }
  return 0;
}
