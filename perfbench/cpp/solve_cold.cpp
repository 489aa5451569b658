// solve_cold — one thread repeats stateless AmfAllocator::allocate over a
// pool of generated instances of one shape.
//
// Why this workload: the flow layer (network build, Dinic, cut-Newton
// probes) does nearly all the work, while svc and the solver workspace do
// none. Demands are uncapped (the paper's headline setting), locality is
// sparse (2-8 sites per job) and site popularity is Zipf. Every instance
// has the same shape, so latency is unimodal.
#include "common.hpp"
#include "core/amf.hpp"
#include "core/reference.hpp"
#include "flow/transport.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr int kJobs = 1000;
constexpr int kSites = 100;
constexpr int kPool = 8;
/// Set-ups timed before the measured loop; one more is timed between
/// each two chunks of it, so they sample the host's load over the whole
/// run. That one builds a second pool beside the measured one.
constexpr int kSetupReps = 9;
/// Solves after which peak_rss_mb is taken (about 3 s at 600 solves/s).
constexpr long long kRssAtOps = 2000;

std::vector<amf::core::AllocationProblem> make_pool(std::uint64_t seed) {
  amf::workload::GeneratorConfig config;
  config.jobs = kJobs;
  config.sites = kSites;
  config.zipf_skew = 0.5;
  config.sites_per_job_min = 2;
  config.sites_per_job_max = 8;
  config.demand_model = amf::workload::DemandModel::kUncapped;
  config.seed = seed;
  amf::workload::Generator generator(config);
  std::vector<amf::core::AllocationProblem> pool;
  pool.reserve(kPool);
  for (int i = 0; i < kPool; ++i) pool.push_back(generator.generate());
  return pool;
}

}  // namespace

void run_solve_cold(const Options& opt, Result& result) {
  std::vector<amf::core::AllocationProblem> pool;
  SetupTimes setup(/*cpu=*/true);
  time_setups(
      setup, kSetupReps, [&] { pool = make_pool(opt.seed); },
      [&] { pool.clear(); });
  const amf::core::AmfAllocator amf;

  // Counting pass, which is also the warm-up: the first solve of each
  // instance is its reference for every later solve.
  std::vector<amf::core::Allocation> reference;
  Counts before = read_counts();
  for (const auto& p : pool) reference.push_back(amf.allocate(p));
  const Counts counts = read_counts() - before;
  result.attempt(kPool);

  // Definitional oracle and feasibility on each distinct instance.
  for (int i = 0; i < kPool; ++i) {
    const auto& p = pool[static_cast<std::size_t>(i)];
    const auto& a = reference[static_cast<std::size_t>(i)];
    if (!a.feasible_for(p))
      result.fail("instance " + std::to_string(i) + ": infeasible allocation");
    else if (!amf::core::is_max_min_fair(p, a.aggregates()))
      result.fail("instance " + std::to_string(i) +
                  ": aggregates are not max-min fair (utilization " +
                  std::to_string(a.utilization(p)) + ")");
  }

  // Measured loop: round-robin over the pool; every solve must repeat its
  // instance's reference bit-for-bit (checked outside the timed call).
  TraceSink trace;
  Chunks chunks(opt);
  Latency solve;
  RssProbe rss(kRssAtOps);
  const CpuClockCheck cpu_check;
  std::uint64_t k = 0;
  while (chunks.begin()) {
    long long done = 0;
    for (;; ++k) {
      const auto t0 = Clock::now();
      if (chunks.over(t0)) break;
      const std::size_t i = k % kPool;
      const auto id = static_cast<long long>(k + 1);
      amf::core::Allocation a;
      const double c0 = thread_cpu_ms();
      {
        amf::obs::ScopedSpan request("bench/solve", "req", id, k + 1,
                                     amf::obs::FlowPhase::kStart);
        amf::obs::ScopedSpan call("core/AmfAllocator::allocate", "req", id,
                                  k + 1, amf::obs::FlowPhase::kStep);
        a = amf.allocate(pool[i]);
      }
      const double c1 = thread_cpu_ms();
      if (!chunks.traced()) solve.add(chunks.elapsed_s(Clock::now()), c1 - c0);
      ++done;
      rss.count();
      result.attempt();
      if (!same_bits(a, reference[i]))
        result.fail("solve " + std::to_string(k) + " of instance " +
                    std::to_string(i) + " differs from its first solve");
    }
    chunks.end(done);
    if (opt.trace) {
      trace.drain();
      continue;
    }
    std::vector<amf::core::AllocationProblem> scratch;
    setup.time([&] { scratch = make_pool(opt.seed); });
  }
  cpu_check.finish(result, "solve_cold");

  // The exact counts must repeat bit-for-bit: a second pass over the same
  // instances has to reproduce the first one's.
  before = read_counts();
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (!same_bits(amf.allocate(pool[i]), reference[i]))
      result.fail("recount solve of instance " + std::to_string(i) +
                  " differs from its first solve");
  result.attempt(kPool);
  const Counts again = read_counts() - before;
  note("solve_cold exact counts over " + std::to_string(kPool) +
       " solves: " + format_counts(counts));
  if (again != counts)
    result.incorrect("solve_cold counts did not repeat: " +
                     format_counts(again));

  if (!opt.trace) {
    result.metric("setup_s", setup.median_s(), "s");
    solve.report(result, "solve", "solve_cold solves");
    // In-process callers have no acknowledgement apart from the solve
    // that absorbs their change, so a delta here is the solve.
    solve.report(result, "delta", "solve_cold deltas (= solves)");
    result.metric("throughput_ops_s", median_rate({&solve}), "1/s");
    rss.report(result);
    return;
  }

  // Flow-layer probes: one timed network build and one timed max flow at
  // the result's aggregates per instance, outside the measured loop.
  std::vector<double> build_ms, maxflow_ms;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto t0 = Clock::now();
    amf::flow::TransportNetwork net(pool[i].demands(), pool[i].capacities());
    const auto t1 = Clock::now();
    net.solve(reference[i].aggregates());
    const auto t2 = Clock::now();
    build_ms.push_back(ms_between(t0, t1));
    maxflow_ms.push_back(ms_between(t1, t2));
    result.attempt();
    if (!net.saturated())
      result.fail("instance " + std::to_string(i) +
                  ": max flow does not saturate the result's aggregates");
  }

  report_counts(result, counts, kPool);
  result.metric("flow.network_build_ms", median(build_ms), "ms");
  result.metric("flow.maxflow_ms", median(maxflow_ms), "ms");
  chunks.report_overhead(result);
  trace.write(opt);
}

}  // namespace perfbench
