// F22 — Cluster serving: session scale-out on one node and shard
// scaling through the router (DESIGN.md §16).
//
// Three parts, each gated (exit 3 on failure):
//
//   A. Session scale-out. One in-process amf_serve (event-driven epoll
//      connection layer + shared one-queue executor, the defaults)
//      hosts TARGET sessions at once — 10 000 in the full sweep — each
//      created, loaded with a job, and solved. A thread per session
//      would need TARGET OS threads here; the executor serves them all
//      on a fixed pool. Gate: every session created and solved.
//
//   B. Shard scaling. N backend servers behind one amf_route; loadgen
//      clients run add_job / solve(latest) / finish_job loops through
//      the router against a fixed session population. Aggregate
//      delta+solve throughput is measured for 1 and N shards; the gate
//      is throughput(N) >= min_scaling * N * throughput(1) in the full
//      sweep (default min_scaling 0.75 — i.e. >= 0.75x ideal).
//
//   C. Bit-identity. A fixed request byte stream is played against the
//      server at batch windows 0 and 2 ms; every response line — ACKs,
//      strict solves, the final snapshot — must match byte-for-byte the
//      frozen transcript tests/data/f22_identity_<rounds>.txt, recorded
//      from the retired thread-per-connection + per-session-worker
//      stack while both stacks were pinned identical. Gate: any
//      diverging byte (or a missing transcript) fails.
//
//   bench_f22_cluster [--smoke] [--json PATH] [--sessions N]
//                     [--min-scaling X]
//
// CSV goes to stdout; a machine-readable summary is written to PATH
// (default BENCH_cluster.json).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "router/router.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/log.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ---------------------------------------------------------------- part A

struct ScaleOutResult {
  long long target = 0;
  long long created = 0;
  long long solved = 0;
  double create_s = 0.0;
  double touch_s = 0.0;
  bool ok = false;
};

ScaleOutResult run_scale_out(long long target, int loaders) {
  using namespace amf;
  svc::ServerConfig config;
  config.tcp_port = 0;  // epoll + executor are the defaults
  svc::Server server(config);
  server.start();

  std::vector<long long> created(static_cast<std::size_t>(loaders), 0);
  std::vector<long long> solved(static_cast<std::size_t>(loaders), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(loaders));
  const auto t0 = Clock::now();
  for (int l = 0; l < loaders; ++l) {
    threads.emplace_back([&, l] {
      svc::Client client =
          svc::Client::connect_tcp("127.0.0.1", server.tcp_port());
      for (long long s = l; s < target; s += loaders) {
        const std::string name = "scale-" + std::to_string(s);
        client.create_session(name, {100.0, 100.0});
        client.add_job(name, {1.0 + static_cast<double>(s % 7), 2.0});
        ++created[static_cast<std::size_t>(l)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double create_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Touch round: one solve per resident session proves every one of
  // them is live and schedulable on the shared executor.
  threads.clear();
  const auto t1 = Clock::now();
  for (int l = 0; l < loaders; ++l) {
    threads.emplace_back([&, l] {
      svc::Client client =
          svc::Client::connect_tcp("127.0.0.1", server.tcp_port());
      for (long long s = l; s < target; s += loaders) {
        const std::string name = "scale-" + std::to_string(s);
        svc::Json response = client.solve(name);
        if (response.bool_or("ok", false))
          ++solved[static_cast<std::size_t>(l)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double touch_s =
      std::chrono::duration<double>(Clock::now() - t1).count();
  server.trigger_drain();
  server.wait_drained();

  ScaleOutResult out;
  out.target = target;
  for (int l = 0; l < loaders; ++l) {
    out.created += created[static_cast<std::size_t>(l)];
    out.solved += solved[static_cast<std::size_t>(l)];
  }
  out.create_s = create_s;
  out.touch_s = touch_s;
  out.ok = out.created == target && out.solved == target;
  return out;
}

// ---------------------------------------------------------------- part B

struct ShardResult {
  int shards = 0;
  long long requests = 0;
  double elapsed_s = 0.0;
  double rps = 0.0;
};

ShardResult run_shard_config(int shards, int clients, int iterations,
                             int sites, int base_jobs, int nsessions) {
  using namespace amf;
  std::vector<std::unique_ptr<svc::Server>> backends;
  router::RouterConfig route_config;
  for (int i = 0; i < shards; ++i) {
    svc::ServerConfig config;
    config.tcp_port = 0;
    // Every shard lives on THIS host, so each is provisioned like one
    // small node — a fixed 2-thread executor and 1 reactor — making
    // shard count (not host core count) the capacity knob the sweep
    // varies. On real clusters each shard would be its own machine.
    config.executor_threads = 2;
    config.io_threads = 1;
    backends.push_back(std::make_unique<svc::Server>(config));
    backends.back()->start();
    svc::Endpoint ep;
    ep.host = "127.0.0.1";
    ep.port = backends.back()->tcp_port();
    route_config.shards.push_back(ep);
  }
  route_config.tcp_port = 0;
  router::Router router(std::move(route_config));
  router.start();

  {
    svc::Client setup =
        svc::Client::connect_tcp("127.0.0.1", router.tcp_port());
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> demand(1.0, 80.0);
    for (int s = 0; s < nsessions; ++s) {
      const std::string name = "shard-sess-" + std::to_string(s);
      setup.create_session(
          name,
          std::vector<double>(static_cast<std::size_t>(sites), 1000.0));
      for (int j = 0; j < base_jobs; ++j) {
        std::vector<double> d(static_cast<std::size_t>(sites));
        for (double& x : d) x = demand(rng);
        setup.add_job(name, d);
      }
    }
  }

  std::vector<long long> sent(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      svc::Client client =
          svc::Client::connect_tcp("127.0.0.1", router.tcp_port());
      const std::string session =
          "shard-sess-" + std::to_string(c % nsessions);
      std::mt19937_64 rng(5000 + static_cast<std::uint64_t>(c));
      std::uniform_real_distribution<double> demand(1.0, 80.0);
      for (int i = 0; i < iterations; ++i) {
        std::vector<double> d(static_cast<std::size_t>(sites));
        for (double& x : d) x = demand(rng);
        const long long job = client.add_job(session, d);
        client.solve(session, /*budget_ms=*/0.0, /*latest=*/true);
        client.finish_job(session, job);
        sent[static_cast<std::size_t>(c)] += 3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  router.trigger_drain();
  router.wait_drained();
  for (auto& backend : backends) {
    backend->trigger_drain();
    backend->wait_drained();
  }

  ShardResult out;
  out.shards = shards;
  for (int c = 0; c < clients; ++c)
    out.requests += sent[static_cast<std::size_t>(c)];
  out.elapsed_s = elapsed;
  out.rps = elapsed > 0.0 ? static_cast<double>(out.requests) / elapsed : 0.0;
  return out;
}

// ---------------------------------------------------------------- part C

struct IdentityResult {
  long long lines = 0;
  long long mismatches = 0;
  bool ok = false;
};

/// Reads a frozen transcript: one response line per request. Empty when
/// the file is missing, which the caller counts as a mismatch.
std::vector<std::string> read_transcript(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Plays one deterministic request script against a server and returns
/// the raw response lines, byte-for-byte.
std::vector<std::string> play_script(int port,
                                     const std::vector<std::string>& script) {
  using namespace amf;
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", port);
  std::vector<std::string> responses;
  responses.reserve(script.size());
  for (const std::string& line : script)
    responses.push_back(client.call_line(line));
  return responses;
}

IdentityResult run_bit_identity(double window_ms, int rounds) {
  using namespace amf;
  // The request SCRIPT is fixed bytes on one connection, so ordering is
  // fixed and every response (ACK seqs, strict solve allocations, the
  // final snapshot) must be byte-identical whatever the batch window or
  // scheduler.
  std::vector<std::string> script;
  long long id = 0;
  auto push = [&](const std::string& body) {
    script.push_back("{\"v\":1,\"id\":" + std::to_string(++id) + "," + body +
                     "}");
  };
  push("\"op\":\"create_session\",\"session\":\"ident\","
       "\"capacities\":[100,80,60,40]");
  // uniform_real_distribution is library-specific: the frozen
  // transcripts were recorded against libstdc++.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> demand(1.0, 30.0);
  for (int r = 0; r < rounds; ++r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"op\":\"add_job\",\"session\":\"ident\","
                  "\"demands\":[%.17g,%.17g,%.17g,%.17g]",
                  demand(rng), demand(rng), demand(rng), demand(rng));
    push(buf);
    if (r % 3 == 1) {
      std::snprintf(buf, sizeof buf,
                    "\"op\":\"site_event\",\"session\":\"ident\","
                    "\"site\":%d,\"capacity_factor\":0.5",
                    r % 4);
      push(buf);
    }
    push("\"op\":\"solve\",\"session\":\"ident\"");
  }
  push("\"op\":\"snapshot\",\"session\":\"ident\"");

  svc::ServerConfig config;
  config.tcp_port = 0;
  config.session.batch_window_ms = window_ms;
  svc::Server server(config);
  server.start();
  const std::vector<std::string> served =
      play_script(server.tcp_port(), script);
  server.trigger_drain();
  server.wait_drained();
  const std::vector<std::string> golden =
      read_transcript(std::string(AMF_TEST_DATA_DIR) + "/f22_identity_" +
                      std::to_string(rounds) + ".txt");

  IdentityResult out;
  out.lines = static_cast<long long>(script.size());
  for (std::size_t i = 0; i < golden.size() && i < served.size(); ++i)
    if (golden[i] != served[i]) ++out.mismatches;
  if (golden.size() != served.size()) ++out.mismatches;
  out.ok = out.mismatches == 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_cluster.json";
  long long sessions = -1;
  double min_scaling = 0.75;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-scaling") == 0 && i + 1 < argc) {
      min_scaling = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_f22_cluster [--smoke] [--json PATH] "
                   "[--sessions N] [--min-scaling X]\n";
      return 2;
    }
  }
  if (sessions < 0) sessions = smoke ? 256 : 10000;
  // 10k sessions x per-session info logs would drown the CSV.
  amf::util::Logger::global().set_level(amf::util::LogLevel::kWarn);
  const int loaders = smoke ? 8 : 16;
  const int clients = smoke ? 8 : 32;
  const int iterations = smoke ? 20 : 120;
  const int sites = 16;
  const int base_jobs = smoke ? 16 : 48;
  const int nsessions = 8;
  const int max_shards = smoke ? 2 : 4;
  const int identity_rounds = smoke ? 24 : 96;

  std::cout << "# F22: cluster serving — session scale-out, shard "
               "scaling through amf_route, bit-identity\n"
            << "# " << (smoke ? "smoke sweep" : "full sweep") << "\n";

  // Part A ----------------------------------------------------------
  const ScaleOutResult a = run_scale_out(sessions, loaders);
  std::cout << "part,metric,value\n"
            << "scale_out,target_sessions," << a.target << "\n"
            << "scale_out,created," << a.created << "\n"
            << "scale_out,solved," << a.solved << "\n"
            << "scale_out,create_s," << fmt(a.create_s) << "\n"
            << "scale_out,create_rps,"
            << fmt(a.create_s > 0.0
                       ? static_cast<double>(a.created) * 2.0 / a.create_s
                       : 0.0)
            << "\n"
            << "scale_out,touch_s," << fmt(a.touch_s) << "\n";

  // Part B ----------------------------------------------------------
  std::vector<ShardResult> shard_results;
  for (int n = 1; n <= max_shards; n *= 2) {
    const ShardResult r =
        run_shard_config(n, clients, iterations, sites, base_jobs,
                         nsessions);
    shard_results.push_back(r);
    std::cout << "shards_" << n << ",requests," << r.requests << "\n"
              << "shards_" << n << ",elapsed_s," << fmt(r.elapsed_s) << "\n"
              << "shards_" << n << ",throughput_rps," << fmt(r.rps) << "\n";
  }
  const double base_rps = shard_results.front().rps;
  const ShardResult& top = shard_results.back();
  const double ideal = base_rps * static_cast<double>(top.shards);
  const double scaling = ideal > 0.0 ? top.rps / ideal : 0.0;
  std::cout << "scaling,shards_1_to_" << top.shards << ","
            << fmt(scaling) << "\n";

  // Part C ----------------------------------------------------------
  const IdentityResult ident0 = run_bit_identity(0.0, identity_rounds);
  const IdentityResult ident2 = run_bit_identity(2.0, identity_rounds);
  std::cout << "bit_identity,window0_lines," << ident0.lines << "\n"
            << "bit_identity,window0_mismatches," << ident0.mismatches
            << "\n"
            << "bit_identity,window2_lines," << ident2.lines << "\n"
            << "bit_identity,window2_mismatches," << ident2.mismatches
            << "\n";

  // Gates ------------------------------------------------------------
  bool gate_ok = true;
  std::vector<std::string> failures;
  if (!a.ok) {
    gate_ok = false;
    failures.push_back("scale-out: created " + std::to_string(a.created) +
                       "/" + std::to_string(a.target) + ", solved " +
                       std::to_string(a.solved));
  }
  for (const ShardResult& r : shard_results)
    if (r.requests <= 0) {
      gate_ok = false;
      failures.push_back("shards_" + std::to_string(r.shards) +
                         ": no requests served");
    }
  // Throughput scaling is only a hard gate in the full sweep — smoke
  // runs are too short for stable ratios (they still gate completion).
  // It also needs hardware that can actually run the shards in
  // parallel: every shard shares this host, so on fewer cores than
  // 2 x shards the ideal is unreachable by physics, not by regression.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool scaling_gated =
      !smoke && cores >= 2u * static_cast<unsigned>(top.shards);
  if (!smoke && !scaling_gated)
    std::cerr << "# scaling gate SKIPPED: " << cores << " core(s) < "
              << 2 * top.shards << " needed to run " << top.shards
              << " shards in parallel on one host\n";
  if (scaling_gated && scaling < min_scaling) {
    gate_ok = false;
    failures.push_back("scaling " + fmt(scaling) + " < min " +
                       fmt(min_scaling));
  }
  if (!ident0.ok || !ident2.ok) {
    gate_ok = false;
    failures.push_back("bit-identity: " +
                       std::to_string(ident0.mismatches) + " (window 0) + " +
                       std::to_string(ident2.mismatches) +
                       " (window 2) diverging response lines");
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"f22_cluster\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"scale_out\": {\"target\": " << a.target
       << ", \"created\": " << a.created << ", \"solved\": " << a.solved
       << ", \"create_s\": " << fmt(a.create_s)
       << ", \"touch_s\": " << fmt(a.touch_s) << "}"
       << ",\n  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < shard_results.size(); ++i) {
    const ShardResult& r = shard_results[i];
    json << "    {\"shards\": " << r.shards
         << ", \"requests\": " << r.requests
         << ", \"elapsed_s\": " << fmt(r.elapsed_s)
         << ", \"throughput_rps\": " << fmt(r.rps) << "}"
         << (i + 1 < shard_results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"scaling\": " << fmt(scaling)
       << ",\n  \"min_scaling\": " << fmt(min_scaling)
       << ",\n  \"scaling_gate_enforced\": "
       << (scaling_gated ? "true" : "false")
       << ",\n  \"bit_identity\": {\"window0_mismatches\": "
       << ident0.mismatches
       << ", \"window2_mismatches\": " << ident2.mismatches << "}"
       << ",\n  \"gate_ok\": " << (gate_ok ? "true" : "false") << "\n}\n";
  std::ofstream out(json_path);
  out << json.str();
  std::cerr << "# wrote " << json_path << "\n";

  if (!gate_ok) {
    for (const std::string& f : failures)
      std::cerr << "# GATE FAILED: " << f << "\n";
    return 3;
  }
  return 0;
}
