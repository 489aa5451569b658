// svc_router_test.cpp — the session-sharding router: stable hashing,
// verbatim forwarding (byte-identity through the router), aggregated
// stats, typed shard_unavailable + client endpoint rotation, and the
// snapshot-based move_session handoff (exactly-once under mid-move
// traffic).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/router.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/net.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"

namespace amf::router {
namespace {

using svc::Client;
using svc::ErrorCode;
using svc::Json;
using svc::Server;
using svc::ServerConfig;
using svc::SvcError;

/// A session name that fnv1a64-hashes onto `shard` of `shards`.
std::string name_on_shard(std::size_t shard, std::size_t shards) {
  for (int i = 0;; ++i) {
    const std::string name = "sess-" + std::to_string(i);
    if (fnv1a64(name) % shards == shard) return name;
  }
}

struct Cluster {
  std::vector<std::unique_ptr<Server>> backends;
  std::unique_ptr<Router> router;

  explicit Cluster(int shards) {
    RouterConfig config;
    for (int i = 0; i < shards; ++i) {
      ServerConfig sc;
      sc.tcp_port = 0;
      backends.push_back(std::make_unique<Server>(sc));
      backends.back()->start();
      svc::Endpoint ep;
      ep.host = "127.0.0.1";
      ep.port = backends.back()->tcp_port();
      config.shards.push_back(ep);
    }
    config.tcp_port = 0;
    router = std::make_unique<Router>(std::move(config));
    router->start();
  }

  ~Cluster() {
    router->trigger_drain();
    router->wait_drained();
    for (auto& backend : backends) {
      backend->trigger_drain();
      backend->wait_drained();
    }
  }

  Client connect() {
    return Client::connect_tcp("127.0.0.1", router->tcp_port());
  }
};

// ---------------------------------------------------------------------

TEST(SvcRouter, Fnv1a64IsTheReferenceFunction) {
  // Pinned reference values (offset 14695981039346656037, prime
  // 1099511628211): a silent hash change would strand every session
  // placement in a running cluster.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(fnv1a64("session-0"), fnv1a64("session-0"));
  EXPECT_NE(fnv1a64("session-0"), fnv1a64("session-1"));
}

TEST(SvcRouter, ForwardsBySessionHash) {
  Cluster cluster(2);
  Client client = cluster.connect();
  EXPECT_TRUE(client.ping());
  const std::string s0 = name_on_shard(0, 2);
  const std::string s1 = name_on_shard(1, 2);
  client.create_session(s0, {10.0, 10.0});
  client.create_session(s1, {20.0, 20.0});
  client.add_job(s0, {1.0, 1.0});
  client.add_job(s1, {2.0, 2.0});
  EXPECT_TRUE(client.solve(s0).bool_or("ok", false));
  EXPECT_TRUE(client.solve(s1).bool_or("ok", false));
  // Each session landed on ITS shard: ask the backends directly.
  Client direct0 =
      Client::connect_tcp("127.0.0.1", cluster.backends[0]->tcp_port());
  Client direct1 =
      Client::connect_tcp("127.0.0.1", cluster.backends[1]->tcp_port());
  EXPECT_TRUE(direct0.snapshot(s0).bool_or("ok", false));
  EXPECT_TRUE(direct1.snapshot(s1).bool_or("ok", false));
  EXPECT_THROW(direct0.snapshot(s1), SvcError);
  EXPECT_THROW(direct1.snapshot(s0), SvcError);
}

TEST(SvcRouter, ResponsesAreByteIdenticalToDirectServing) {
  Cluster cluster(2);
  const std::string name = name_on_shard(1, 2);
  std::vector<std::string> script = {
      "{\"v\":1,\"id\":1,\"op\":\"create_session\",\"session\":\"" + name +
          "\",\"capacities\":[60,40]}",
      "{\"v\":1,\"id\":2,\"op\":\"add_job\",\"session\":\"" + name +
          "\",\"demands\":[3,2]}",
      "{\"v\":1,\"id\":3,\"op\":\"add_job\",\"session\":\"" + name +
          "\",\"demands\":[1,5]}",
      "{\"v\":1,\"id\":4,\"op\":\"solve\",\"session\":\"" + name + "\"}",
      "{\"v\":1,\"id\":5,\"op\":\"snapshot\",\"session\":\"" + name + "\"}",
  };
  Client through = cluster.connect();
  std::vector<std::string> routed;
  for (const std::string& line : script)
    routed.push_back(through.call_line(line));

  // Reference: the same bytes against a standalone server.
  ServerConfig sc;
  sc.tcp_port = 0;
  Server reference(sc);
  reference.start();
  Client direct = Client::connect_tcp("127.0.0.1", reference.tcp_port());
  for (std::size_t i = 0; i < script.size(); ++i)
    EXPECT_EQ(routed[i], direct.call_line(script[i]))
        << "line " << i << " diverges through the router";
  reference.trigger_drain();
  reference.wait_drained();
}

TEST(SvcRouter, StatsAggregateAcrossShards) {
  Cluster cluster(2);
  Client client = cluster.connect();
  client.create_session(name_on_shard(0, 2), {10.0});
  client.create_session(name_on_shard(1, 2), {10.0});
  Json stats = client.stats();
  const Json* router_info = stats.find("router");
  ASSERT_NE(router_info, nullptr);
  EXPECT_EQ(router_info->number_or("shards", 0.0), 2.0);
  EXPECT_EQ(router_info->number_or("reachable", 0.0), 2.0);
  const Json* sessions = stats.find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->as_array().size(), 2u);  // one per shard, merged
  const Json* shards = stats.find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->as_array().size(), 2u);
}

TEST(SvcRouter, SessionlessOpsNeedASession) {
  Cluster cluster(1);
  Client client = cluster.connect();
  try {
    client.promote();
    FAIL() << "promote through the router must be rejected";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

// ---------------------------------------------------------------------
// Failure modes

TEST(SvcRouter, DeadShardYieldsTypedShardUnavailable) {
  // Shard 1 is a dead endpoint (connect() to a port nothing listens
  // on): sessions hashing there get a typed shard_unavailable, while
  // shard 0 sessions keep serving.
  ServerConfig sc;
  sc.tcp_port = 0;
  Server live(sc);
  live.start();
  RouterConfig config;
  svc::Endpoint ep0;
  ep0.host = "127.0.0.1";
  ep0.port = live.tcp_port();
  svc::Endpoint dead;
  dead.host = "127.0.0.1";
  dead.port = 1;  // reserved port: connection refused
  config.shards = {ep0, dead};
  config.tcp_port = 0;
  config.connect_timeout_ms = 500.0;
  Router router(std::move(config));
  router.start();

  Client client = Client::connect_tcp("127.0.0.1", router.tcp_port());
  const std::string ok_name = name_on_shard(0, 2);
  const std::string dead_name = name_on_shard(1, 2);
  client.create_session(ok_name, {10.0});
  EXPECT_TRUE(client.ping());
  try {
    client.create_session(dead_name, {10.0});
    FAIL() << "create on a dead shard must fail";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kShardUnavailable);
  }
  // The healthy shard is unaffected.
  client.add_job(ok_name, {1.0});
  EXPECT_TRUE(client.solve(ok_name).bool_or("ok", false));

  router.trigger_drain();
  router.wait_drained();
  live.trigger_drain();
  live.wait_drained();
}

TEST(SvcRouter, ClientRotatesEndpointsOnShardUnavailable) {
  // Router A's only shard is dead; router B's is alive. A client with
  // [A, B] as its failover list must rotate to B when A answers
  // shard_unavailable — same machinery as not_primary failover.
  ServerConfig sc;
  sc.tcp_port = 0;
  Server live(sc);
  live.start();

  svc::Endpoint live_ep;
  live_ep.host = "127.0.0.1";
  live_ep.port = live.tcp_port();
  svc::Endpoint dead_ep;
  dead_ep.host = "127.0.0.1";
  dead_ep.port = 1;

  RouterConfig ca;
  ca.shards = {dead_ep};
  ca.tcp_port = 0;
  ca.connect_timeout_ms = 500.0;
  Router router_a(std::move(ca));
  router_a.start();
  RouterConfig cb;
  cb.shards = {live_ep};
  cb.tcp_port = 0;
  Router router_b(std::move(cb));
  router_b.start();

  {
    // Seed the session via the healthy path (create is not retried).
    Client setup = Client::connect_tcp("127.0.0.1", router_b.tcp_port());
    setup.create_session("rotate-me", {10.0, 10.0});
  }
  svc::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_initial_ms = 1.0;
  retry.jitter_seed = 7;
  Client client = Client::connect_endpoints(
      {svc::Endpoint{"", "127.0.0.1", router_a.tcp_port()},
       svc::Endpoint{"", "127.0.0.1", router_b.tcp_port()}},
      retry);
  // First attempt hits router A -> shard_unavailable -> rotate -> B.
  client.add_job("rotate-me", {1.0, 1.0});
  EXPECT_TRUE(client.solve("rotate-me").bool_or("ok", false));
  EXPECT_GE(client.client_stats().failovers, 1u);

  router_a.trigger_drain();
  router_a.wait_drained();
  router_b.trigger_drain();
  router_b.wait_drained();
  live.trigger_drain();
  live.wait_drained();
}

// ---------------------------------------------------------------------
// move_session

TEST(SvcRouter, MoveSessionRelocatesStateAndRemaps) {
  Cluster cluster(2);
  Client client = cluster.connect();
  const std::string name = name_on_shard(0, 2);
  client.create_session(name, {30.0, 30.0});
  client.add_job(name, {3.0, 1.0});
  client.add_job(name, {1.0, 3.0});
  const std::string before = client.solve(name).dump();

  const std::string line =
      "{\"v\":1,\"id\":77,\"op\":\"move_session\",\"session\":\"" + name +
      "\",\"to\":1}";
  Json response = Json::parse(client.call_line(line));
  EXPECT_TRUE(response.bool_or("ok", false));
  EXPECT_EQ(response.number_or("from", -1.0), 0.0);
  EXPECT_EQ(response.number_or("to", -1.0), 1.0);
  EXPECT_TRUE(response.bool_or("moved", false));

  // The session now lives on shard 1 (direct check), is gone from
  // shard 0, and keeps serving through the router with identical
  // allocations.
  Client direct1 =
      Client::connect_tcp("127.0.0.1", cluster.backends[1]->tcp_port());
  EXPECT_TRUE(direct1.snapshot(name).bool_or("ok", false));
  Client direct0 =
      Client::connect_tcp("127.0.0.1", cluster.backends[0]->tcp_port());
  EXPECT_THROW(direct0.snapshot(name), SvcError);
  Json after = Json::parse(before);
  Json again = client.solve(name);
  EXPECT_EQ(again.find("allocation")->dump(),
            after.find("allocation")->dump());
}

TEST(SvcRouter, MoveSessionValidatesArguments) {
  Cluster cluster(2);
  Client client = cluster.connect();
  auto expect_error = [&](const std::string& line, ErrorCode code) {
    Json response = Json::parse(client.call_line(line));
    EXPECT_FALSE(response.bool_or("ok", true));
    const Json* error = response.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(svc::parse_error_code(error->string_or("code", "")), code);
  };
  expect_error("{\"v\":1,\"id\":1,\"op\":\"move_session\",\"to\":1}",
               ErrorCode::kBadRequest);
  expect_error("{\"v\":1,\"id\":2,\"op\":\"move_session\","
               "\"session\":\"x\"}",
               ErrorCode::kBadRequest);
  expect_error("{\"v\":1,\"id\":3,\"op\":\"move_session\","
               "\"session\":\"x\",\"to\":9}",
               ErrorCode::kBadRequest);
  // Unknown session: the evict on the source shard raises no_session,
  // which the router surfaces verbatim.
  const std::string ghost = name_on_shard(0, 2);
  expect_error("{\"v\":1,\"id\":4,\"op\":\"move_session\",\"session\":\"" +
                   ghost + "\",\"to\":1}",
               ErrorCode::kNoSession);
}

TEST(SvcRouter, MoveSessionMidTrafficIsExactlyOnce) {
  // Deltas with client-generated rids flow while the session moves
  // between shards. The dedup window travels with the snapshot, so
  // every delta is applied exactly once: final job count == adds acked.
  Cluster cluster(2);
  const std::string name = name_on_shard(0, 2);
  {
    Client setup = cluster.connect();
    setup.create_session(name, {1000.0, 1000.0});
  }
  Client admin = cluster.connect();
  std::atomic<bool> stop{false};
  std::atomic<long long> acked{0};
  // An exception escaping the traffic thread would terminate the whole
  // test binary; keep its message and fail the test with it instead.
  std::string traffic_error;
  std::thread traffic([&] {
    try {
      svc::RetryPolicy retry;
      retry.max_attempts = 4;
      retry.read_timeout_ms = 2000.0;
      retry.backoff_initial_ms = 1.0;
      retry.jitter_seed = 11;
      Client client = Client::connect_tcp("127.0.0.1",
                                          cluster.router->tcp_port(), retry);
      while (!stop.load()) {
        client.add_job(name, {1.0, 1.0});
        acked.fetch_add(1);
      }
    } catch (const std::exception& e) {
      traffic_error = e.what();
    }
  });
  {
    // Stop and join the traffic on every way out of this block, so a
    // failed assertion or a throw here never destroys a joinable thread.
    struct JoinTraffic {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~JoinTraffic() {
        stop.store(true);
        thread.join();
      }
    } join_traffic{stop, traffic};
    // Bounce the session between the shards a few times under load.
    for (int to : {1, 0, 1}) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      const std::string line =
          "{\"v\":1,\"id\":50,\"op\":\"move_session\",\"session\":\"" +
          name + "\",\"to\":" + std::to_string(to) + "}";
      Json response = Json::parse(admin.call_line(line));
      ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
    }
  }
  if (!traffic_error.empty()) FAIL() << "traffic thread: " << traffic_error;

  Json snap = admin.snapshot(name);
  const Json* snapshot = snap.find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  const Json* jobs = snapshot->find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(static_cast<long long>(jobs->as_array().size()), acked.load());
}

TEST(SvcRouter, MoveSessionChasesADrainingSourceShard) {
  // A delta that resolved shard 0 before a move can reach the source
  // while evict_session drains the session and be refused `draining`.
  // That refusal admitted nothing, so the router must chase the session
  // to its new shard instead of handing the refusal to the client. Shard
  // 0 is scripted here so the race happens on every run.
  const std::string name = name_on_shard(0, 2);
  // What shard 0 hands over on evict: a real session's drained state.
  Json handover = Json::object();
  {
    ServerConfig sc;
    sc.tcp_port = 0;
    Server donor(sc);
    donor.start();
    Client client = Client::connect_tcp("127.0.0.1", donor.tcp_port());
    client.create_session(name, {50.0, 50.0});
    const Json evicted = client.evict_session(name);
    for (const char* key : {"session", "seq", "snapshot"})
      handover.set(key, *evicted.find(key));
    donor.trigger_drain();
    donor.wait_drained();
  }
  int scripted_port = 0;
  svc::Socket listener = svc::listen_tcp(0, &scripted_port);
  ServerConfig sc;
  sc.tcp_port = 0;
  Server target(sc);
  target.start();
  RouterConfig config;
  config.shards.resize(2);
  config.shards[0].host = "127.0.0.1";
  config.shards[0].port = scripted_port;
  config.shards[1].host = "127.0.0.1";
  config.shards[1].port = target.tcp_port();
  config.tcp_port = 0;
  Router router(std::move(config));
  router.start();

  std::atomic<bool> delta_arrived{false};
  std::thread shard0([&] {
    svc::Socket traffic = svc::accept_connection(listener);
    svc::LineReader traffic_in(traffic.fd());
    std::string delta;
    ASSERT_EQ(traffic_in.read_line(&delta), svc::LineReader::Status::kLine);
    delta_arrived.store(true);
    svc::Socket admin = svc::accept_connection(listener);
    svc::LineReader admin_in(admin.fd());
    std::string evict;
    ASSERT_EQ(admin_in.read_line(&evict), svc::LineReader::Status::kLine);
    // The move has begun: refuse the delta the way a draining session
    // does, then hand the session over.
    traffic.send_all(svc::error_line(
        Json::parse(delta).number_or("id", 0.0), ErrorCode::kDraining,
        "session \"" + name + "\" is draining"));
    admin.send_all(
        svc::ok_line(Json::parse(evict).number_or("id", 0.0), handover));
  });
  long long job = -1;
  std::string traffic_error;
  std::thread traffic([&] {
    try {
      Client client = Client::connect_tcp("127.0.0.1", router.tcp_port());
      job = client.add_job(name, {1.0, 1.0});
    } catch (const std::exception& e) {
      traffic_error = e.what();
    }
  });
  while (!delta_arrived.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Client admin = Client::connect_tcp("127.0.0.1", router.tcp_port());
  const Json moved = Json::parse(admin.call_line(
      "{\"v\":1,\"id\":50,\"op\":\"move_session\",\"session\":\"" + name +
      "\",\"to\":1}"));
  traffic.join();
  shard0.join();
  EXPECT_TRUE(moved.bool_or("moved", false)) << moved.dump();
  EXPECT_EQ(traffic_error, "");
  EXPECT_EQ(job, 0);
  Client direct = Client::connect_tcp("127.0.0.1", target.tcp_port());
  EXPECT_EQ(direct.snapshot(name).find("snapshot")->find("jobs")
                ->as_array().size(), 1u);
  router.trigger_drain();
  router.wait_drained();
  target.trigger_drain();
  target.wait_drained();
}

TEST(SvcRouter, MoveSessionKeepsPolicyAndContinuesSeq) {
  Cluster cluster(2);
  Client client = cluster.connect();
  const std::string name = name_on_shard(0, 2);
  Json overrides = Json::object();
  overrides.set("policy", Json("psmf"));
  overrides.set("default_budget_ms", Json(50.0));
  client.create_session(name, {3.0, 3.0}, std::move(overrides));
  client.add_job(name, {3.0, 3.0});
  client.add_job(name, {0.0, 3.0});
  const Json before = client.solve(name);

  const auto move = [&](int to, const std::string& extra) {
    Json response = Json::parse(client.call_line(
        "{\"v\":1,\"id\":9,\"op\":\"move_session\",\"session\":\"" +
        name + "\",\"to\":" + std::to_string(to) + extra + "}"));
    EXPECT_TRUE(response.bool_or("moved", false)) << response.dump();
  };
  move(1, "");
  Json after = client.solve(name);
  EXPECT_EQ(after.find("allocation")->string_or("policy", ""), "PSMF");
  EXPECT_EQ(after.find("allocation")->dump(),
            before.find("allocation")->dump());
  EXPECT_EQ(after.number_or("budget_ms", 0.0), 50.0);
  EXPECT_EQ(after.number_or("seq", -1.0), 2.0);
  Json job = Json::object();
  job.set("demands", svc::to_json({1.0, 1.0}));
  EXPECT_EQ(client.call(svc::Op::kAddJob, name, std::move(job))
                .number_or("seq", -1.0),
            3.0);

  // A policy given in the move request overrides the carried one.
  move(0, ",\"policy\":\"amf\"");
  EXPECT_EQ(client.solve(name).find("allocation")->string_or("policy", ""),
            "AMF");
}

}  // namespace
}  // namespace amf::router
