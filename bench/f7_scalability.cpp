// F7 / T2 — Allocation algorithm scalability and per-call runtimes.
//
// Wall-clock time of one call as the instance grows: AMF/E-AMF/PSMF with
// jobs swept at 10 sites, then sites swept at 200 jobs. AMF/E-AMF run
// progressive filling with max-flow solves (polynomial, flow-dominated);
// PSMF is the O(n·m·log n) water-filling floor. Then the pieces
// underneath and around an allocation: one max flow, the JCT add-on,
// water-filling, and a batch through the simulator. Expected shape: AMF
// within a small constant of interactive use even at thousands of jobs.
//
// Every point is the minimum over kReps timed calls after one untimed
// warm-up call, so it reads as the cost of the call on a quiet core, not
// as one sample of a noisy one.
//
// A second table measures memory on large sparse instances (a job's data
// on 4 of up to 1000 sites): the peak resident set after generating the
// instance and after solving it with AMF, one child process per point so
// that each peak (VmHWM only rises) covers that point alone.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>

#include "common.hpp"

namespace {

using namespace amf;

constexpr int kReps = 7;

/// Minimum wall time of `call` over `reps` calls, after one warm-up call.
/// `call` returns a value derived from its result, so the work cannot be
/// elided.
template <typename Call>
double min_ms(Call&& call, int reps = kReps) {
  volatile double sink = call();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    sink = call();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  (void)sink;
  return best;
}

core::AllocationProblem component_problem(int jobs) {
  auto cfg = workload::paper_default(1.0, 424242);
  cfg.jobs = jobs;
  cfg.sites = 10;
  cfg.sites_per_job_max = 4;
  workload::Generator gen(cfg);
  return gen.generate();
}

/// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// One memory point, measured in a forked child and returned as a CSV row:
/// jobs, sites, nonzeros, peak RSS after generating the instance and after
/// solving it, the AMF call's time, and that solve's freeze rounds and max
/// flows (SolveReport), which explain the time.
std::string memory_point(int jobs, int sites) {
  int fds[2];
  if (pipe(fds) != 0) return "pipe failed";
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    auto cfg = workload::paper_default(1.0, 7);
    cfg.jobs = jobs;
    cfg.sites = sites;
    cfg.sites_per_job_min = cfg.sites_per_job_max = 4;
    cfg.demand_model = workload::DemandModel::kProportionalToWork;
    workload::Generator gen(cfg);
    const core::AllocationProblem problem = gen.generate();
    const double built = peak_rss_mb();
    const core::AmfAllocator amf;
    core::SolveReport report;
    const double ms = min_ms(
        [&] { return amf.allocate_with_report(problem, report).aggregate(0); },
        1);
    const std::string row =
        std::to_string(jobs) + "," + std::to_string(sites) + "," +
        std::to_string(problem.demands().entries.size()) + "," +
        util::CsvWriter::format(built) + "," +
        util::CsvWriter::format(peak_rss_mb()) + "," +
        util::CsvWriter::format(ms) + "," +
        std::to_string(report.trace.rounds) + "," +
        std::to_string(report.flow_solves) + "\n";
    const bool sent =
        write(fds[1], row.data(), row.size()) ==
        static_cast<ssize_t>(row.size());
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::string row;
  char buf[256];
  for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) > 0;)
    row.append(buf, static_cast<std::size_t>(got));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? row
                                                       : "child failed\n";
}

}  // namespace

int main() {
  // Memory points first, while this process is still small: a forked
  // child's peak starts from its parent's resident set.
  std::vector<std::string> memory;
  for (const auto& [jobs, sites] :
       std::vector<std::pair<int, int>>{{5000, 100}, {20000, 500},
                                        {50000, 1000}})
    memory.push_back(memory_point(jobs, sites));

  bench::preamble("F7", "allocator wall time vs instance size",
                  {"dimension: jobs (m=10) or sites (n=200); components "
                   "at m=10 (water_fill: n entries)",
                   "ms: min over 7 calls after one warm-up call",
                   "expected: AMF polynomial, comfortably interactive"});

  core::AmfAllocator amf;
  core::EnhancedAmfAllocator eamf;
  core::PerSiteMaxMin psmf;
  const std::vector<std::pair<std::string, const core::Allocator*>> policies{
      {"AMF", &amf}, {"E-AMF", &eamf}, {"PSMF", &psmf}};

  util::CsvWriter csv(std::cout, {"dimension", "value", "policy", "ms"});
  auto row = [&csv](const std::string& dimension, int value,
                    const std::string& what, double ms) {
    csv.row({dimension, util::CsvWriter::format(value), what,
             util::CsvWriter::format(ms)});
  };
  auto time_policies = [&](const std::string& dimension, int value,
                           const core::AllocationProblem& problem) {
    for (const auto& [name, policy] : policies)
      row(dimension, value, name, min_ms([&, p = policy] {
            return p->allocate(problem).aggregate(0);
          }));
  };

  for (int jobs : {10, 50, 100, 250, 500, 1000, 2000}) {
    auto cfg = workload::paper_default(1.0, 90);
    cfg.jobs = jobs;
    workload::Generator gen(cfg);
    time_policies("jobs", jobs, gen.generate());
  }
  for (int sites : {2, 5, 10, 25, 50, 100}) {
    auto cfg = workload::paper_default(1.0, 91);
    cfg.jobs = 200;
    cfg.sites = sites;
    cfg.sites_per_job_max = std::min(4, sites);
    workload::Generator gen(cfg);
    time_policies("sites", sites, gen.generate());
  }

  // One max flow. Consecutive calls alternate between two cap vectors, so
  // each one runs Dinic instead of returning the last-caps memo.
  for (int jobs : {100, 400, 1000}) {
    const auto problem = component_problem(jobs);
    flow::TransportNetwork net(problem.demands(), problem.capacities());
    const std::vector<double> caps_a(static_cast<std::size_t>(jobs), 5.0);
    const std::vector<double> caps_b(static_cast<std::size_t>(jobs), 4.0);
    bool flip = false;
    row("maxflow", jobs, "TransportNetwork::solve", min_ms([&] {
          flip = !flip;
          return net.solve(flip ? caps_a : caps_b);
        }));
  }
  for (int jobs : {10, 50, 100}) {
    const auto problem = component_problem(jobs);
    const auto base = amf.allocate(problem);
    core::JctAddon addon;
    row("jct_addon", jobs, "JctAddon::optimize", min_ms([&] {
          return addon.optimize(problem, base).aggregate(0);
        }));
  }
  for (int n : {100, 1000, 10000}) {
    util::Rng rng(7);
    std::vector<double> caps(static_cast<std::size_t>(n));
    const std::vector<double> weights(static_cast<std::size_t>(n), 1.0);
    for (auto& c : caps) c = rng.uniform(0.0, 10.0);
    row("water_fill", n, "water_fill", min_ms([&] {
          return core::water_fill(caps, weights, static_cast<double>(n))
              .front();
        }));
  }
  for (int jobs : {25, 50, 100}) {
    workload::Generator gen(workload::paper_default(1.2, 515151));
    auto trace = workload::generate_trace(gen, 0.8, jobs);
    for (auto& j : trace.jobs) j.arrival = 0.0;
    row("sim_batch", jobs, "AMF", min_ms([&] {
          sim::Simulator simulator(amf);
          return static_cast<double>(simulator.run(trace).size());
        }));
  }

  std::cout << "# F7 memory: peak RSS (VmHWM, MB) of one child process per "
               "point, after generating the instance and after solving it "
               "with AMF\n"
               "# paper_default seed 7, 4 demanded sites per job, demand "
               "proportional to work; amf_ms: one call after a warm-up call; "
               "fill_rounds and max_flows: that call's SolveReport\n"
               "jobs,sites,nonzeros,rss_after_build_mb,rss_after_solve_mb,"
               "amf_ms,fill_rounds,max_flows\n";
  for (const std::string& line : memory) std::cout << line;
  return 0;
}
