// serve_routed — closed-loop clients drive one in-process router in front
// of two in-process allocation servers over loopback TCP.
//
// Why this workload: svc (parsing, epoll reactor, executor, journal,
// reply encoding) and the router hop dominate, and the allocator is a
// minority of request time; writes (deltas) run beside reads (solves). A
// flow-layer gain should read "no change" here.
//
// Load model: kClients connections, each waiting for every reply the way
// a scheduler does. Each client owns half of kSessions small sessions and
// visits them round-robin; a visit sends add_job, finish_job, site_event
// and one strict solve. Journaling is on with FsyncPolicy::kOff. Every
// client keeps a mirror of its sessions' problems, and sampled solve
// replies must be bit-identical to a stateless in-process solve of the
// mirror.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/amf.hpp"
#include "router/router.hpp"
#include "svc/client.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 2;
/// Sessions the clients visit. With 64, each client's round of 32
/// sessions outgrows the caches a shared host's other tenants leave it:
/// in the same interleaved runs, the spread of throughput across seeds
/// was 0.27 with 64 sessions and 0.12 with 16.
constexpr int kSessions = 16;
constexpr int kJobs = 16;
constexpr int kSites = 8;
/// Set-ups timed before the measured loop; one more is timed between
/// each two chunks of it, so they sample the host's load over the whole
/// run. That one builds a second cluster beside the measured one and
/// tears it down before the next chunk.
constexpr int kSetupReps = 7;
/// Each client keeps every this-many-th solve reply for checking; a prime,
/// so the kept replies rotate over the client's sessions.
constexpr std::uint64_t kSampleEvery = 61;
/// Requests after which peak_rss_mb is taken (about 4 s at 13 000/s).
constexpr long long kRssAtOps = 50000;
/// Matched routed/direct request pairs of the traced run's hop probe.
constexpr int kHopPairs = 512;

amf::workload::GeneratorConfig config(std::uint64_t seed) {
  amf::workload::GeneratorConfig c;
  c.jobs = kJobs;
  c.sites = kSites;
  c.zipf_skew = 1.0;
  c.sites_per_job_min = 2;
  c.sites_per_job_max = 4;
  c.capacity_jitter = 0.2;
  c.seed = seed;
  return c;
}

std::string session_name(int s) { return "sess-" + std::to_string(s); }

/// A client's view of one session: the problem the server should hold.
struct Mirror {
  std::string name;
  amf::core::AllocationProblem problem;
  std::vector<double> nominal;
  std::vector<double> factor;
  std::vector<long long> ids;
};

/// Two allocation servers (one reactor thread, one executor thread and a
/// journal each) behind one router, all on loopback TCP.
class Cluster {
 public:
  explicit Cluster(std::string journal_root) : root_(std::move(journal_root)) {
    amf::router::RouterConfig route;
    route.tcp_port = 0;
    for (std::size_t k = 0; k < kShards; ++k) {
      amf::svc::ServerConfig cfg;
      cfg.tcp_port = 0;
      cfg.io_threads = 1;
      cfg.executor_threads = 1;
      cfg.journal_dir = root_ + "/shard" + std::to_string(k);
      cfg.fsync = amf::svc::FsyncPolicy::kOff;
      std::filesystem::create_directories(cfg.journal_dir);
      shards_.push_back(std::make_unique<amf::svc::Server>(cfg));
      shards_.back()->start();
      amf::svc::Endpoint ep;
      ep.host = "127.0.0.1";
      ep.port = shards_.back()->tcp_port();
      route.shards.push_back(ep);
    }
    router_ = std::make_unique<amf::router::Router>(std::move(route));
    router_->start();
  }

  ~Cluster() {
    router_.reset();  // drains: joins its connection threads
    for (auto& shard : shards_) {
      shard->trigger_drain();
      shard->wait_drained();
    }
    shards_.clear();
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  amf::router::Router& router() { return *router_; }
  int shard_port(std::size_t k) const { return shards_[k]->tcp_port(); }

 private:
  std::string root_;
  std::vector<std::unique_ptr<amf::svc::Server>> shards_;
  std::unique_ptr<amf::router::Router> router_;
};

/// The ready state: cluster, connected clients and loaded sessions.
struct Ready {
  std::unique_ptr<Cluster> cluster;
  std::vector<amf::svc::Client> clients;
  std::vector<std::vector<Mirror>> mirrors;  ///< per client
};

void set_up(const Options& opt, int rep, Ready& r) {
  amf::workload::Generator generator(config(opt.seed));
  r.cluster = std::make_unique<Cluster>(
      opt.out_dir + "/journal-" + std::to_string(::getpid()) + "-" +
      std::to_string(rep));
  const int port = r.cluster->router().tcp_port();
  for (std::size_t c = 0; c < kClients; ++c)
    r.clients.push_back(amf::svc::Client::connect_tcp("127.0.0.1", port));
  r.mirrors.assign(kClients, {});
  for (int s = 0; s < kSessions; ++s) {
    const amf::core::AllocationProblem p = generator.generate();
    const std::size_t owner = static_cast<std::size_t>(s) % kClients;
    auto& client = r.clients[owner];
    Mirror m;
    m.name = session_name(s);
    m.nominal = p.capacities();
    m.factor.assign(m.nominal.size(), 1.0);
    m.problem = amf::core::AllocationProblem({}, m.nominal);
    client.create_session(m.name, m.nominal);
    for (int j = 0; j < p.jobs(); ++j) {
      const auto& row = p.demands()[static_cast<std::size_t>(j)];
      m.ids.push_back(client.add_job(m.name, row));
      m.problem = std::move(m.problem).apply(
          amf::core::ProblemDelta::job_arrived(row));
    }
    r.mirrors[owner].push_back(std::move(m));
  }
}

/// A solve reply kept for checking after the measured loop.
struct Sample {
  amf::core::AllocationProblem problem;
  std::vector<long long> ids;
  std::string allocation;
};

/// One client thread's state across chunks and what it measured.
struct ClientRun {
  ClientRun(const Options& opt, int c)
      : generator(config(opt.seed)),
        rng(opt.seed * 7919 + static_cast<std::uint64_t>(c) + 1) {
    // Room for the samples of a fast run up front, so that no vector is
    // copied while the loop runs. Pages are only touched when filled.
    const auto reserve = static_cast<std::size_t>(opt.seconds * 20000.0);
    solve.samples.reserve(reserve);
    delta.samples.reserve(3 * reserve);
  }

  amf::workload::Generator generator;
  amf::util::Rng rng;
  std::uint64_t visit = 0;

  Latency solve;  ///< untraced chunks
  Latency delta;  ///< untraced chunks
  double solve_ms_all = 0.0;     ///< every chunk, for the wire estimate
  long long solves_all = 0;
  long long attempted = 0;
  std::vector<std::string> failures;
  std::vector<Sample> samples;
  double reply_bytes = 0.0;
};

/// Visits the client's sessions until the chunk is over; returns the
/// requests answered.
long long client_loop(int c, const Chunks& chunks, RssProbe& rss,
                      amf::svc::Client& client, std::vector<Mirror>& mirrors,
                      ClientRun& run) {
  const bool traced = chunks.traced();
  long long answered = 0;
  for (;; ++run.visit) {
    if (chunks.over(Clock::now())) break;
    Mirror& m = mirrors[run.visit % mirrors.size()];
    const auto visit_id = static_cast<long long>(
        (static_cast<std::uint64_t>(c) << 40) | run.visit);

    // This visit's inputs, drawn before any request is timed.
    auto row = run.generator.draw_job_row(m.nominal, run.rng).demands;
    const auto victim =
        static_cast<std::size_t>(run.rng.uniform_index(m.ids.size()));
    const auto site = static_cast<int>(run.rng.uniform_index(kSites));
    const double old_factor = m.factor[static_cast<std::size_t>(site)];
    const double factor = old_factor == 0.0          ? 1.0
                          : run.rng.uniform() < 0.2 ? 0.0
                                                    : run.rng.uniform(0.5, 1.25);

    amf::obs::ScopedSpan visit_span("bench/visit", "visit", visit_id);
    auto timed = [&](const char* span, bool delta, auto&& call) {
      ++run.attempted;
      const auto t0 = Clock::now();
      try {
        // The span carries the wire trace id the client stamped on the
        // request, which the server's spans carry too.
        amf::obs::ScopedSpan s(span, "trace", 0);
        call();
        s.set_arg(static_cast<long long>(client.last_trace()));
      } catch (const std::exception& e) {
        run.failures.push_back(std::string(span) + " on " + m.name + ": " +
                               e.what());
        return false;
      }
      const auto t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      ++answered;
      rss.count();
      if (!traced)
        (delta ? run.delta : run.solve).add(chunks.elapsed_s(t1), ms);
      if (!delta) {
        run.solve_ms_all += ms;
        ++run.solves_all;
      }
      return true;
    };

    long long handle = -1;
    if (timed("client/add_job", true,
              [&] { handle = client.add_job(m.name, row); })) {
      m.ids.push_back(handle);
      m.problem = std::move(m.problem).apply(
          amf::core::ProblemDelta::job_arrived(std::move(row)));
    }
    const long long gone = m.ids[victim];
    if (timed("client/finish_job", true,
              [&] { client.finish_job(m.name, gone); })) {
      m.ids.erase(m.ids.begin() + static_cast<std::ptrdiff_t>(victim));
      m.problem = std::move(m.problem).apply(
          amf::core::ProblemDelta::job_departed(static_cast<int>(victim)));
    }
    if (timed("client/site_event", true,
              [&] { client.site_event(m.name, site, factor); })) {
      m.factor[static_cast<std::size_t>(site)] = factor;
      m.problem = std::move(m.problem).apply(
          amf::core::ProblemDelta::site_capacity(
              site, m.nominal[static_cast<std::size_t>(site)] * factor));
    }
    amf::svc::Json reply;
    if (!timed("client/solve", false,
               [&] { reply = client.solve(m.name); }))
      continue;
    if (run.visit % kSampleEvery == 0) {
      const amf::svc::Json* allocation = reply.find("allocation");
      run.samples.push_back(
          Sample{m.problem, m.ids,
                 allocation != nullptr ? allocation->dump() : "(none)"});
      run.reply_bytes += static_cast<double>(reply.dump().size() + 1);
    }
  }
  return answered;
}

/// Runs every client's loop on its own thread for the current chunk;
/// returns the requests answered. The clients stamp wire trace ids in
/// traced chunks.
long long run_chunk(const Chunks& chunks, RssProbe& rss, Ready& ready,
                    std::vector<ClientRun>& runs) {
  std::vector<long long> answered(kClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    ready.clients[c].set_tracing(chunks.traced());
    threads.emplace_back([&, c] {
      answered[c] = client_loop(static_cast<int>(c), chunks, rss,
                                ready.clients[c], ready.mirrors[c], runs[c]);
    });
  }
  for (auto& t : threads) t.join();
  long long total = 0;
  for (long long n : answered) total += n;
  return total;
}

std::vector<ClientRun> client_runs(const Options& opt) {
  std::vector<ClientRun> runs;
  runs.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c)
    runs.emplace_back(opt, static_cast<int>(c));
  return runs;
}

}  // namespace

void run_serve_routed(const Options& opt, Result& result) {
  Ready ready;
  int rep = 0;
  SetupTimes setup(/*cpu=*/false);
  time_setups(
      setup, kSetupReps, [&] { set_up(opt, rep++, ready); },
      [&] {
        ready.clients.clear();
        ready.cluster.reset();
      });
  result.attempt(kSessions * (kJobs + 1));

  // Warm-up: 0.5 s of visits whose numbers are dropped.
  {
    Options warm = opt;
    warm.seconds = 0.5;
    warm.trace = false;
    Chunks chunks(warm);
    std::vector<ClientRun> runs = client_runs(warm);
    RssProbe not_reported(0);
    chunks.begin();
    run_chunk(chunks, not_reported, ready, runs);
    chunks.end(0);
    for (const ClientRun& run : runs) {
      result.attempt(run.attempted);
      for (const auto& f : run.failures) result.fail(f);
    }
  }

  // Measured loop. In a traced run, the tracer is drained after each
  // untraced chunk: by then the traced chunk before it has had a whole
  // chunk for the servers to finish its last spans.
  auto& registry = amf::obs::Registry::global();
  const amf::obs::Snapshot snap0 = registry.snapshot();
  const Counts counts0 = read_counts();
  TraceSink trace;
  Chunks chunks(opt);
  std::vector<ClientRun> runs = client_runs(opt);
  RssProbe rss(kRssAtOps);
  while (chunks.begin()) {
    chunks.end(run_chunk(chunks, rss, ready, runs));
    if (opt.trace) {
      if (!chunks.traced()) trace.drain();
      continue;  // the traced run's registry deltas cover the loop alone
    }
    Ready scratch;
    setup.time([&] { set_up(opt, rep++, scratch); });
  }
  for (auto& client : ready.clients) client.set_tracing(false);
  const amf::obs::Snapshot snap1 = registry.snapshot();
  const Counts counts = read_counts() - counts0;

  // Checks, outside the measured loop: every request answered, sampled
  // solves bit-identical to a stateless solve of the client's mirror.
  const amf::core::AmfAllocator amf;
  Latency solve, delta;
  double solve_ms_all = 0.0, solves_all = 0.0, reply_bytes = 0.0;
  std::size_t samples = 0;
  for (const ClientRun& run : runs) {
    result.attempt(run.attempted);
    for (const auto& f : run.failures) result.fail(f);
    for (const Sample& s : run.samples) {
      result.attempt();
      const std::string expected =
          amf::svc::allocation_to_json(amf.allocate(s.problem), s.ids).dump();
      if (expected != s.allocation)
        result.fail("solve reply differs from the stateless solve of its "
                    "mirror: " + s.allocation.substr(0, 120));
    }
    samples += run.samples.size();
    solve.merge(run.solve);
    delta.merge(run.delta);
    solve_ms_all += run.solve_ms_all;
    solves_all += static_cast<double>(run.solves_all);
    reply_bytes += run.reply_bytes;
  }
  note("serve_routed checked " + std::to_string(samples) +
       " sampled solve replies against their mirrors");

  if (!opt.trace) {
    result.metric("setup_s", setup.median_s(), "s");
    solve.report(result, "solve", "serve_routed solves");
    delta.report(result, "delta", "serve_routed deltas");
    result.metric("throughput_ops_s", median_rate({&solve, &delta}), "1/s");
    rss.report(result);
    return;
  }

  // Router hop: matched pairs of the same solve sent through the router
  // and straight to the owning shard (Router::shard_of). Sessions are
  // unchanged since their last solve, so both sides are cache hits and
  // differ only by the hop. The order alternates within the pairs.
  std::vector<amf::svc::Client> direct;
  for (std::size_t k = 0; k < kShards; ++k)
    direct.push_back(amf::svc::Client::connect_tcp(
        "127.0.0.1", ready.cluster->shard_port(k)));
  std::vector<double> hop_ms;
  for (int i = 0; i < kHopPairs; ++i) {
    const std::string name = session_name(i % kSessions);
    const auto id = static_cast<std::uint64_t>(i);
    auto& routed_client = ready.clients[id % kSessions % kClients];
    auto& direct_client = direct[ready.cluster->router().shard_of(name)];
    double routed = 0.0, straight = 0.0;
    std::string routed_reply, direct_reply;
    result.attempt(2);
    try {
      for (int leg = 0; leg < 2; ++leg) {
        const bool via_router = (leg + i) % 2 == 0;
        const auto t0 = Clock::now();
        const amf::svc::Json reply =
            via_router ? routed_client.solve(name) : direct_client.solve(name);
        const double ms = ms_between(t0, Clock::now());
        const amf::svc::Json* allocation = reply.find("allocation");
        const std::string dump =
            allocation != nullptr ? allocation->dump() : "";
        (via_router ? routed : straight) = ms;
        (via_router ? routed_reply : direct_reply) = dump;
      }
    } catch (const std::exception& e) {
      result.fail(std::string("hop probe on ") + name + ": " + e.what());
      continue;
    }
    if (routed_reply != direct_reply)
      result.fail("routed and direct replies differ for " + name);
    hop_ms.push_back(routed - straight);
  }
  direct.clear();

  const double solves = static_cast<double>(
      snap1.counter("amf_svc_solve_calls_total") -
      snap0.counter("amf_svc_solve_calls_total"));
  report_counts(result, counts, solves);

  const HistDelta parse = hist_delta(snap0, snap1, "amf_svc_stage_parse_ms");
  const HistDelta turnaround = hist_delta(snap0, snap1, "amf_svc_turnaround_ms");
  result.metric("svc.stage_parse_ms", parse.p50, "ms");
  result.metric("svc.stage_queue_ms",
                hist_delta(snap0, snap1, "amf_svc_stage_queue_ms").p50, "ms");
  result.metric("svc.stage_solve_ms",
                hist_delta(snap0, snap1, "amf_svc_stage_solve_ms").p50, "ms");
  result.metric("svc.stage_journal_ms",
                hist_delta(snap0, snap1, "amf_svc_stage_journal_ms").p50, "ms");
  result.metric("svc.stage_reply_ms",
                hist_delta(snap0, snap1, "amf_svc_stage_reply_ms").p50, "ms");
  // Server turnaround of a solve: line parse plus enqueue-to-response.
  const double server_ms = parse.mean + turnaround.mean;
  const double hop = median(hop_ms);
  result.metric("svc.server_turnaround_ms", server_ms, "ms");
  result.metric("svc.wire_ms",
                solves_all > 0.0 ? solve_ms_all / solves_all - server_ms - hop
                                 : 0.0,
                "ms");
  result.metric("svc.solve_reply_bytes",
                samples > 0 ? reply_bytes / static_cast<double>(samples) : 0.0,
                "bytes");
  result.metric("svc.batch_size_mean",
                hist_delta(snap0, snap1, "amf_svc_batch_size").mean,
                "requests");
  result.metric("router.hop_ms", hop, "ms");
  chunks.report_overhead(result);
  trace.drain();
  trace.write(opt);
}

}  // namespace perfbench
