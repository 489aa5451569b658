// common.hpp — shared helpers for the figure/table harnesses.
//
// Every bench binary regenerates one figure or table of the evaluation
// (see DESIGN.md §4 and EXPERIMENTS.md): it prints a self-describing
// preamble (as '#' comment lines) followed by CSV rows, so output can be
// piped straight into any plotting tool. All harnesses are seeded and
// deterministic.
#pragma once

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "amf.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace amf::bench {

/// Prints the figure banner: id, claim being validated, expected shape.
inline void preamble(const std::string& id, const std::string& title,
                     const std::vector<std::string>& notes) {
  std::cout << "# " << id << ": " << title << "\n";
  for (const auto& n : notes) std::cout << "# " << n << "\n";
}

/// Per-policy completion-time statistics from one simulated trace.
struct SimJct {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Runs the trace through the simulator under `policy` (optionally with
/// the JCT add-on) and summarizes job completion times.
inline SimJct run_sim(const core::Allocator& policy,
                      const workload::Trace& trace, bool use_addon = false) {
  sim::SimulatorConfig cfg;
  cfg.use_jct_addon = use_addon;
  sim::Simulator simulator(policy, cfg);
  auto records = simulator.run(trace);
  std::vector<double> jct;
  jct.reserve(records.size());
  for (const auto& r : records) jct.push_back(r.jct());
  SimJct out;
  if (!jct.empty()) {
    out.mean = std::accumulate(jct.begin(), jct.end(), 0.0) /
               static_cast<double>(jct.size());
    out.p50 = util::percentile(jct, 50.0);
    out.p95 = util::percentile(jct, 95.0);
    out.max = util::percentile(jct, 100.0);
  }
  return out;
}

/// Mean of the finite entries; `unbounded` counts the rest.
inline double finite_mean(const std::vector<double>& v, int* unbounded) {
  double sum = 0.0;
  int count = 0;
  int inf = 0;
  for (double x : v) {
    if (std::isfinite(x)) {
      sum += x;
      ++count;
    } else {
      ++inf;
    }
  }
  if (unbounded != nullptr) *unbounded = inf;
  return count > 0 ? sum / count : 0.0;
}

/// Turns a batch of arrivals into a t = 0 batch (static-set experiments).
inline workload::Trace as_batch(workload::Trace trace) {
  for (auto& j : trace.jobs) j.arrival = 0.0;
  return trace;
}

}  // namespace amf::bench
