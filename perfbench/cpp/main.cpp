// amf_perfbench — the repository benchmark's binary.
//
//   amf_perfbench --workload solve_cold|replay_churn|serve_routed
//                 --seed N --seconds S --trace 0|1
//
// Runs one workload in this process, checks its outputs, and prints one
// JSON line as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones; a layer a workload does not
// exercise reports 0. perfbench/run.py builds this binary and runs it.
#include <malloc.h>
#include <sched.h>

#include <cctype>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/log.hpp"

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in the order of the benchmark's README.
constexpr LayerMetric kPerLayer[] = {
    {"flow.maxflow_calls_per_solve", "1/solve"},
    {"flow.newton_iters_per_solve", "1/solve"},
    {"flow.dinic_phases_per_solve", "1/solve"},
    {"flow.augmenting_paths_per_solve", "1/solve"},
    {"flow.network_build_ms", "ms"},
    {"flow.maxflow_ms", "ms"},
    {"flow.compactions_per_solve", "1/solve"},
    {"flow.warm_probe_share", "ratio"},
    {"core.fill_rounds_per_solve", "1/solve"},
    {"core.problem_apply_ms", "ms"},
    {"core.workspace_apply_ms", "ms"},
    {"core.allocate_warm_ms", "ms"},
    {"core.warm_speedup", "ratio"},
    {"core.warm_hit_ratio", "ratio"},
    {"core.ws_invalidations", "1/solve"},
    {"svc.stage_parse_ms", "ms"},
    {"svc.stage_queue_ms", "ms"},
    {"svc.stage_solve_ms", "ms"},
    {"svc.stage_journal_ms", "ms"},
    {"svc.stage_reply_ms", "ms"},
    {"svc.server_turnaround_ms", "ms"},
    {"svc.wire_ms", "ms"},
    {"svc.solve_reply_bytes", "bytes"},
    {"svc.batch_size_mean", "requests"},
    {"router.hop_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

constexpr const char* kEndToEnd[] = {
    "setup_s",      "solve_p50_ms",     "solve_p99_ms", "delta_p50_ms",
    "delta_p99_ms", "throughput_ops_s", "peak_rss_mb",
};

/// Device interrupts each CPU has served since boot, from the numbered
/// rows of /proc/interrupts; empty if that file cannot be read.
std::vector<long long> device_interrupts() {
  std::ifstream in("/proc/interrupts");
  std::string header;
  if (!std::getline(in, header)) return {};
  std::vector<int> cpus;  // column -> CPU number
  std::istringstream names(header);
  for (std::string name; names >> name;)
    if (name.rfind("CPU", 0) == 0) cpus.push_back(std::atoi(name.c_str() + 3));
  std::vector<long long> count(CPU_SETSIZE, 0);
  for (std::string line; std::getline(in, line);) {
    std::istringstream row(line);
    std::string label;
    row >> label;
    if (label.empty() || !std::isdigit(static_cast<unsigned char>(label[0])))
      continue;  // LOC, RES, ...: timer and inter-processor interrupts
    for (int cpu : cpus) {
      long long n = 0;
      if (!(row >> n)) break;
      if (cpu >= 0 && cpu < CPU_SETSIZE) count[static_cast<std::size_t>(cpu)] += n;
    }
  }
  return count;
}

/// Confines this process, and every thread it starts later, to one CPU:
/// of those it may run on, the one that has served the fewest device
/// interrupts (the last such CPU on a tie). On a shared host whose CPUs
/// are themselves scheduled by a hypervisor, a request that hops between
/// threads on several CPUs waits for each CPU to be scheduled again; on
/// one CPU the loopback serving path costs its own work and context
/// switches, and the single-threaded workloads no longer migrate. A CPU
/// that takes the disk's interrupts also runs their completion work,
/// including that of serve_routed's own journal writes: pinned to such a
/// CPU, the spread of routed throughput across seeds was about three
/// times that on a CPU without device interrupts.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const std::vector<long long> irqs = device_interrupts();
  int best = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (best < 0 || irqs.empty() ||
        irqs[static_cast<std::size_t>(cpu)] <=
            irqs[static_cast<std::size_t>(best)])
      best = cpu;
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0)
    std::cerr << "amf_perfbench: pinned to cpu " << best << " ("
              << (irqs.empty() ? 0 : irqs[static_cast<std::size_t>(best)])
              << " device interrupts so far)\n";
}

/// Keeps memory the program frees inside the process. By default glibc
/// hands large blocks and the heap's free top back to the kernel, so a
/// solve that allocates its flow arrays afresh page-faults on them every
/// time: about 200 faults per solve_cold solve, 15% of its time. On a
/// virtual machine that fault path is among the noisiest costs there is,
/// and it is the kernel's work, not the allocator's. The malloc and free
/// calls themselves are still timed.
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int usage(const char* why) {
  std::cerr << "amf_perfbench: " << why
            << "\nusage: amf_perfbench --workload solve_cold|replay_churn|"
               "serve_routed --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const perfbench::Options&, perfbench::Result&) = nullptr;
  if (opt.workload == "solve_cold") run = perfbench::run_solve_cold;
  if (opt.workload == "replay_churn") run = perfbench::run_replay_churn;
  if (opt.workload == "serve_routed") run = perfbench::run_serve_routed;
  if (run == nullptr) return usage("unknown workload");

  // The service logs each session creation at info level to stderr;
  // warnings (sheds, slow solves) still show.
  amf::util::Logger::global().set_level(amf::util::LogLevel::kWarn);

  pin_to_one_cpu();
  keep_freed_memory();
  perfbench::Result result;
  try {
    std::filesystem::create_directories(opt.out_dir);
    run(opt, result);
  } catch (const std::exception& e) {
    std::cerr << "amf_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace) {
    for (const auto& m : kPerLayer)
      if (!result.has(m.name)) result.metric(m.name, 0.0, m.unit);
  } else {
    for (const char* name : kEndToEnd)
      if (!result.has(name)) {
        std::cerr << "amf_perfbench: " << opt.workload << " did not report "
                  << name << "\n";
        return 1;
      }
  }
  std::cout << result.line() << std::endl;
  return 0;
}
