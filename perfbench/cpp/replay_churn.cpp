// replay_churn — AllocationProblems, each with its own SolverWorkspace
// (exact realization), receive seeded event streams; every event is
// followed by a warm AmfAllocator::allocate(problem, workspace).
//
// Why this workload: it exercises the persistent-network path — delta
// repair, compaction, warm probes and many freeze rounds per solve —
// which uses the flow layer differently from solve_cold's fresh networks.
// Demands are task-slot (DemandModel::kProportionalToWork), so most jobs
// freeze in their own round. The mix is about 45% arrivals, 45%
// departures and 10% site capacity changes or outages; arrivals lean
// toward departures when the job count is above its start and the other
// way below it, so the instance size stays put however long a run lasts.
// Each event is drawn just before it is applied, outside the timed call,
// the way serve_routed draws each visit's requests.
//
// The events go round-robin to kLanes independent instances, each with
// its own stream. One instance's cost per event moves with its state (a
// site outage lasts about a hundred events), and its shape is fixed by
// the seed; spread over eight instances, a run's median depends on the
// program more than on the seed.
#include <algorithm>

#include "common.hpp"
#include "core/amf.hpp"
#include "core/reference.hpp"
#include "core/workspace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr int kJobs = 60;
constexpr int kSites = 12;
/// Independent instances the events go to, round-robin.
constexpr int kLanes = 8;
/// Set-ups timed before the measured loop and between its chunks. One
/// takes about 1 ms, so a burst of them all falls in one phase of the
/// host's load; spreading them over the run samples its phases the way
/// the run's other metrics do.
constexpr int kSetupReps = 21;
constexpr int kSetupRepsPerGap = 10;
/// Untimed events between setup and the measured loop.
constexpr int kWarmupEvents = 16 * kLanes;
/// Fixed prefix (round-robin over the lanes) replayed from the initial
/// state by the counting passes.
constexpr int kCountEvents = 48 * kLanes;
/// Within the counting prefix: every kVerifyEvery-th warm allocation of
/// each lane (offset by the lane, so the checks rotate over the lanes) is
/// compared with a stateless one, and every kOracleEvery-th of those
/// compared allocations is also checked by the oracle.
constexpr int kVerifyEvery = 4;
constexpr int kOracleEvery = 15;
/// Tracer ring size of the one recording thread: a traced 1 s chunk
/// records about 115 000 library spans (one per freeze round and cut-
/// Newton iteration), more than the tracer's default ring holds.
constexpr std::size_t kTraceRingEvents = 1 << 19;
/// Events after which peak_rss_mb is taken (about 8 s at 250 events/s).
constexpr long long kRssAtOps = 2000;

amf::workload::GeneratorConfig config(std::uint64_t seed) {
  amf::workload::GeneratorConfig c;
  c.jobs = kJobs;
  c.sites = kSites;
  c.zipf_skew = 1.0;
  c.sites_per_job_min = 2;
  c.sites_per_job_max = 8;
  c.demand_model = amf::workload::DemandModel::kProportionalToWork;
  c.demand_factor = 0.2;
  c.seed = seed;
  return c;
}

/// The generated input: an initial instance and the event stream that
/// follows it. Events depend only on the job count and site state, which
/// the stream tracks itself, so the stream is fixed by the seed.
class EventStream {
 public:
  explicit EventStream(std::uint64_t seed)
      : generator_(config(seed)),
        initial_(generator_.generate()),
        nominal_(initial_.capacities()),
        capacity_(nominal_),
        jobs_(initial_.jobs()) {}

  const amf::core::AllocationProblem& initial() const { return initial_; }

  amf::core::ProblemDelta next() {
    amf::util::Rng& rng = generator_.rng();
    if (rng.uniform() < 0.1) {
      const int s = static_cast<int>(rng.uniform_index(kSites));
      auto& c = capacity_[static_cast<std::size_t>(s)];
      const double nom = nominal_[static_cast<std::size_t>(s)];
      // A site that is down recovers; an up site goes down (outage) or
      // changes capacity.
      c = c == 0.0 ? nom : rng.uniform() < 0.3 ? 0.0 : nom * rng.uniform(0.5, 1.25);
      return amf::core::ProblemDelta::site_capacity(s, c);
    }
    const double p_arrive =
        std::clamp(0.5 + (kJobs - jobs_) / (0.2 * kJobs), 0.05, 0.95);
    if (jobs_ == 0 || rng.uniform() < p_arrive) {
      auto row = generator_.draw_job_row(nominal_, rng);
      ++jobs_;
      return amf::core::ProblemDelta::job_arrived(std::move(row.demands),
                                                  std::move(row.workloads));
    }
    const auto gone =
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(jobs_)));
    --jobs_;
    return amf::core::ProblemDelta::job_departed(gone);
  }

 private:
  amf::workload::Generator generator_;
  amf::core::AllocationProblem initial_;
  std::vector<double> nominal_;
  std::vector<double> capacity_;
  int jobs_;
};

/// Seed of one lane's stream: the lanes of one run, and of runs with
/// different seeds, all differ.
std::uint64_t lane_seed(std::uint64_t seed, int lane) {
  return seed * kLanes + static_cast<std::uint64_t>(lane);
}

/// One instance: its stream, the problem it has reached and a workspace
/// primed on that problem.
struct Lane {
  explicit Lane(std::uint64_t seed)
      : stream(seed), problem(stream.initial()) {}
  EventStream stream;
  amf::core::AllocationProblem problem;
  amf::core::SolverWorkspace ws;
};

/// What a counting pass measured.
struct Pass {
  Counts counts;  ///< flow/core counts of the warm path only
  double warm_ms = 0.0;       ///< warm allocate time on verified events
  double stateless_ms = 0.0;  ///< stateless allocate time on the same
};

/// Replays the fixed prefix from the initial states on fresh workspaces.
/// With `verify`, sampled warm allocations are checked against stateless
/// ones and the oracle (outside the counted region).
Pass count_pass(std::uint64_t seed, bool verify, Result& result) {
  const amf::core::AmfAllocator amf;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int l = 0; l < kLanes; ++l)
    lanes.push_back(std::make_unique<Lane>(lane_seed(seed, l)));
  Pass pass;
  int verified = 0;
  for (int e = 0; e < kCountEvents; ++e) {
    const int l = e % kLanes;
    Lane& lane = *lanes[static_cast<std::size_t>(l)];
    const amf::core::ProblemDelta delta = lane.stream.next();
    const Counts before = read_counts();
    const auto t0 = Clock::now();
    lane.problem = std::move(lane.problem).apply(delta);
    lane.ws.apply(delta);
    const amf::core::Allocation warm = amf.allocate(lane.problem, lane.ws);
    const auto t1 = Clock::now();
    pass.counts += read_counts() - before;
    result.attempt();
    if (!verify || (e / kLanes + l) % kVerifyEvery != 0) continue;
    const auto t2 = Clock::now();
    const amf::core::Allocation cold = amf.allocate(lane.problem);
    pass.warm_ms += ms_between(t0, t1);
    pass.stateless_ms += ms_between(t2, Clock::now());
    const std::string where =
        "event " + std::to_string(e) + " (lane " + std::to_string(l) + ")";
    if (!same_bits(warm, cold))
      result.fail(where + ": warm allocation differs from the stateless one");
    if (verified++ % kOracleEvery != 0) continue;
    if (!warm.feasible_for(lane.problem))
      result.fail(where + ": infeasible allocation");
    else if (!amf::core::is_max_min_fair(lane.problem, warm.aggregates()))
      result.fail(where + ": aggregates are not max-min fair (utilization " +
                  std::to_string(warm.utilization(lane.problem)) + ")");
  }
  return pass;
}

/// The ready state: every lane's stream, the problem it starts from and a
/// workspace primed on that problem.
struct State {
  std::vector<std::unique_ptr<Lane>> lanes;

  void build(std::uint64_t seed) {
    for (int l = 0; l < kLanes; ++l) {
      lanes.push_back(std::make_unique<Lane>(lane_seed(seed, l)));
      lanes.back()->ws.prime(lanes.back()->problem);
    }
  }
};

}  // namespace

void run_replay_churn(const Options& opt, Result& result) {
  State state;
  SetupTimes setup(/*cpu=*/true);
  time_setups(
      setup, kSetupReps, [&] { state.build(opt.seed); },
      [&] { state = State{}; });
  const amf::core::AmfAllocator amf;

  const Pass first = count_pass(opt.seed, /*verify=*/true, result);

  long long id = 0;
  auto next_lane = [&]() -> Lane& {
    return *state.lanes[static_cast<std::size_t>(id++ % kLanes)];
  };
  for (int e = 0; e < kWarmupEvents; ++e) {
    Lane& lane = next_lane();
    const amf::core::ProblemDelta delta = lane.stream.next();
    lane.problem = std::move(lane.problem).apply(delta);
    lane.ws.apply(delta);
    amf.allocate(lane.problem, lane.ws);
  }
  result.attempt(kWarmupEvents);

  amf::obs::Tracer::global().set_capacity(kTraceRingEvents);
  TraceSink trace({"core/AllocationProblem::apply",
                   "core/SolverWorkspace::apply",
                   "core/AmfAllocator::allocate"});
  Chunks chunks(opt);
  Latency solve;
  RssProbe rss(kRssAtOps);
  const CpuClockCheck cpu_check;
  const Counts loop0 = read_counts();
  while (chunks.begin()) {
    long long done = 0;
    for (;;) {
      const auto t0 = Clock::now();
      if (chunks.over(t0)) break;
      Lane& lane = next_lane();
      const amf::core::ProblemDelta delta = lane.stream.next();
      const auto flow = static_cast<std::uint64_t>(id);
      const double c0 = thread_cpu_ms();
      {
        using amf::obs::FlowPhase;
        using amf::obs::ScopedSpan;
        ScopedSpan request("bench/event", "req", id, flow, FlowPhase::kStart);
        {
          ScopedSpan s("core/AllocationProblem::apply", "req", id, flow,
                       FlowPhase::kStep);
          lane.problem = std::move(lane.problem).apply(delta);
        }
        {
          ScopedSpan s("core/SolverWorkspace::apply", "req", id, flow,
                       FlowPhase::kStep);
          lane.ws.apply(delta);
        }
        ScopedSpan s("core/AmfAllocator::allocate", "req", id, flow,
                     FlowPhase::kStep);
        amf.allocate(lane.problem, lane.ws);
      }
      const double c1 = thread_cpu_ms();
      if (!chunks.traced()) solve.add(chunks.elapsed_s(Clock::now()), c1 - c0);
      ++done;
      rss.count();
      result.attempt();
    }
    chunks.end(done);
    if (opt.trace) {
      trace.drain();
      continue;
    }
    for (int i = 0; i < kSetupRepsPerGap; ++i) {
      State scratch;
      setup.time([&] { scratch.build(opt.seed); });
    }
  }
  cpu_check.finish(result, "replay_churn");
  // The counting prefix is short; the compaction rate it reports grows
  // with the departures a workspace has seen (see the README).
  const Counts loop = read_counts() - loop0;
  note("replay_churn measured loop: " +
       std::to_string(loop.at("amf_flow_inc_compactions")) +
       " compactions, " + std::to_string(loop.at("amf_core_fill_rounds")) +
       " fill rounds and " +
       std::to_string(loop.at("amf_flow_augmenting_paths")) +
       " augmenting paths over " + std::to_string(loop.at("amf_core_fills")) +
       " events");

  // The exact counts must repeat bit-for-bit on a second replay.
  const Pass again = count_pass(opt.seed, /*verify=*/false, result);
  note("replay_churn exact counts over " + std::to_string(kCountEvents) +
       " events: " + format_counts(first.counts));
  if (again.counts != first.counts)
    result.incorrect("replay_churn counts did not repeat: " +
                     format_counts(again.counts));

  if (!opt.trace) {
    result.metric("setup_s", setup.median_s(), "s");
    solve.report(result, "solve", "replay_churn events");
    // In-process callers have no acknowledgement apart from the solve
    // that absorbs their change, so a delta here is the event.
    solve.report(result, "delta", "replay_churn deltas (= events)");
    result.metric("throughput_ops_s", median_rate({&solve}), "1/s");
    rss.report(result);
    return;
  }

  report_counts(result, first.counts, kCountEvents);
  result.metric("core.problem_apply_ms",
                median(trace.durations_ms("core/AllocationProblem::apply")),
                "ms");
  result.metric("core.workspace_apply_ms",
                median(trace.durations_ms("core/SolverWorkspace::apply")),
                "ms");
  result.metric("core.allocate_warm_ms",
                median(trace.durations_ms("core/AmfAllocator::allocate")),
                "ms");
  result.metric("core.warm_speedup",
                first.warm_ms > 0.0 ? first.stateless_ms / first.warm_ms : 0.0,
                "ratio");
  chunks.report_overhead(result);
  trace.write(opt);
}

}  // namespace perfbench
