// svc_executor_test.cpp — the scale-out serving layers on one node:
// the one-queue SvcExecutor, the epoll EventLoop, and the pinned
// contract that the server (epoll reactors + shared executor) answers a
// fixed request stream BYTE-IDENTICALLY to the frozen transcript
// tests/data/svc_scaleout_transcript.txt. That file was recorded from
// the retired thread-per-connection + worker-per-session stack while
// both stacks were pinned identical.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "golden.hpp"
#include "svc/client.hpp"
#include "svc/eventloop.hpp"
#include "svc/executor.hpp"
#include "svc/json.hpp"
#include "svc/net.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

namespace amf::svc {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// SvcExecutor

TEST(SvcExecutor, RunsEverySubmittedTask) {
  SvcExecutor pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (ran.load() < 200 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(), 200);
  pool.stop();
  EXPECT_EQ(pool.queue_depth(), 0);
}

TEST(SvcExecutor, SubmitAfterFiresWithPayload) {
  // Regression pin: the deferred path must carry the TASK, not just the
  // deadline — an empty function here once crashed the whole pool.
  SvcExecutor pool(2);
  std::atomic<bool> fired{false};
  const auto t0 = Clock::now();
  pool.submit_after(20.0, [&fired] { fired.store(true); });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!fired.load() && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(fired.load());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  EXPECT_GE(elapsed_ms, 19.0);
  pool.stop();
}

TEST(SvcExecutor, SubmitAfterZeroDelayRunsImmediately) {
  SvcExecutor pool(1);
  std::atomic<bool> fired{false};
  pool.submit_after(0.0, [&fired] { fired.store(true); });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!fired.load() && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(fired.load());
  pool.stop();
}

TEST(SvcExecutor, CancelDropsAParkedTaskOnlyBeforeItFires) {
  SvcExecutor pool(1);
  std::atomic<int> fired{0};
  const auto parked = pool.submit_after(60000.0, [&fired] { ++fired; });
  EXPECT_TRUE(pool.cancel(parked));
  EXPECT_FALSE(pool.cancel(parked));  // already gone
  const auto soon = pool.submit_after(1.0, [&fired] { ++fired; });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (fired.load() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(pool.cancel(soon));  // fired: it ran as submitted
}

TEST(SvcExecutor, FollowUpsRunWhileTheirSubmitterBlocks) {
  // A task that submits follow-ups and then blocks must not hold them
  // back: the other workers take them from the shared run queue.
  SvcExecutor pool(4);
  std::atomic<int> ran{0};
  std::mutex gate;
  gate.lock();
  pool.submit([&] {
    // This worker enqueues follow-ups, then stalls.
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
    std::lock_guard<std::mutex> hold(gate);  // blocks until released
  });
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (ran.load() < 64 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.unlock();
  EXPECT_EQ(ran.load(), 64);   // completed while the owner was blocked
  pool.stop();
}

TEST(SvcExecutor, StopIsIdempotentAndJoins) {
  SvcExecutor pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.stop();
  pool.stop();  // second stop is a no-op
  // After stop, submits are silently dropped (server tears sessions
  // down before stopping the pool, so nothing depends on late tasks).
  pool.submit([&ran] { ran.fetch_add(1000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(ran.load(), 16);
}

// ---------------------------------------------------------------------
// EventLoop

TEST(SvcEventLoop, DispatchesReadableAndStops) {
  EventLoop loop(2);
  EXPECT_EQ(loop.reactors(), 2u);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  set_nonblocking(fds[0], true);
  std::atomic<int> events{0};
  const std::size_t reactor = loop.pick();
  loop.add(reactor, fds[0], [&](std::uint32_t) {
    char buf[8];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
    events.fetch_add(1);
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (events.load() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(events.load(), 1);
  loop.remove(reactor, fds[0]);
  // A write after remove must not dispatch (level-triggered epoll would
  // spin otherwise); one in-flight late event is tolerated by contract.
  const int before = events.load();
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LE(events.load(), before + 1);
  loop.stop();
  loop.stop();  // idempotent
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SvcEventLoop, PickRoundRobins) {
  EventLoop loop(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 6; ++i) seen.insert(loop.pick());
  EXPECT_EQ(seen.size(), 3u);
  loop.stop();
}

// ---------------------------------------------------------------------
// Bit-identity pins against the frozen reference transcript

std::vector<std::string> fixed_script() {
  std::vector<std::string> script;
  long long id = 0;
  auto push = [&](const std::string& body) {
    script.push_back("{\"v\":1,\"id\":" + std::to_string(++id) + "," +
                     body + "}");
  };
  push("\"op\":\"create_session\",\"session\":\"pin\","
       "\"capacities\":[90,70,50]");
  for (int r = 0; r < 12; ++r) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"op\":\"add_job\",\"session\":\"pin\","
                  "\"demands\":[%d,%d,%d],\"rid\":\"rid-%d\"",
                  3 + r % 5, 2 + r % 7, 1 + r % 3, r);
    push(buf);
    if (r % 4 == 2)
      push("\"op\":\"site_event\",\"session\":\"pin\",\"site\":" +
           std::to_string(r % 3) + ",\"capacity_factor\":0.5");
    push("\"op\":\"solve\",\"session\":\"pin\"");
  }
  push("\"op\":\"snapshot\",\"session\":\"pin\"");
  // A replayed rid must re-ACK from the dedup window, not re-apply.
  push("\"op\":\"add_job\",\"session\":\"pin\","
       "\"demands\":[3,2,1],\"rid\":\"rid-0\"");
  push("\"op\":\"snapshot\",\"session\":\"pin\"");
  return script;
}

/// Plays the script on one connection; returns the response lines, one
/// per request, each terminated by '\n'.
std::string play(ServerConfig config,
                 const std::vector<std::string>& script) {
  config.tcp_port = 0;
  Server server(config);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  std::string transcript;
  for (const std::string& line : script)
    transcript += client.call_line(line) + "\n";
  server.trigger_drain();
  server.wait_drained();
  return transcript;
}

TEST(SvcScaleOut, ExecutorPathIsByteIdenticalToLegacy) {
  ServerConfig config;
  golden::check_or_regen("svc_scaleout_transcript.txt",
                         play(config, fixed_script()));
}

TEST(SvcScaleOut, ByteIdenticalUnderBatchWindow) {
  // Coalescing windows change WHEN batches run, never what they
  // produce: with a fixed single-connection request order the responses
  // must not depend on the window either.
  ServerConfig config;
  config.session.batch_window_ms = 3.0;
  golden::check_or_regen("svc_scaleout_transcript.txt",
                         play(config, fixed_script()));
}

TEST(SvcScaleOut, ManySessionsOnSmallPool) {
  // 64 sessions on a 2-thread executor: a thread per session would need
  // 64 threads; the pool serves them all, preserving per-session
  // ordering (seq gaps would surface as wrong ACKs).
  ServerConfig config;
  config.tcp_port = 0;
  config.executor_threads = 2;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    for (int s = 0; s < 64; ++s) {
      const std::string name = "many-" + std::to_string(s);
      client.create_session(name, {50.0, 50.0});
      client.add_job(name, {1.0, 2.0});
      client.add_job(name, {2.0, 1.0});
      Json solved = client.solve(name);
      EXPECT_EQ(solved.number_or("seq", -1.0), 2.0) << name;
    }
  }
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcScaleOut, ConcurrentClientsOnEpollSharedSession) {
  ServerConfig config;
  config.tcp_port = 0;
  config.session.batch_window_ms = 2.0;
  Server server(config);
  server.start();
  {
    Client setup = Client::connect_tcp("127.0.0.1", server.tcp_port());
    setup.create_session("shared", {100.0, 100.0, 100.0});
  }
  std::vector<std::thread> threads;
  std::atomic<int> solved{0};
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
      for (int i = 0; i < 10; ++i) {
        const long long job =
            client.add_job("shared", {1.0 + c, 2.0, 1.0 + i % 3});
        client.solve("shared", 0.0, /*latest=*/true);
        client.finish_job("shared", job);
        solved.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(solved.load(), 80);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcScaleOut, OpenConnectionsGaugeTracksConnects) {
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  auto& gauge = SvcMetrics::get().open_connections;
  const double before = gauge.value();
  {
    Client a = Client::connect_tcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(a.ping());
    Client b = Client::connect_tcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(b.ping());
    EXPECT_GE(gauge.value(), before + 2.0);
  }
  // Disconnects are observed by the reactor asynchronously.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (gauge.value() > before && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_LE(gauge.value(), before);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcScaleOut, ExecutorGaugesAreRegistered) {
  // The scale-out gauges exist in the registry (values are
  // load-dependent; registration + readability is the pin).
  EXPECT_TRUE(SvcMetrics::get().executor_queue_depth.valid());
  EXPECT_TRUE(SvcMetrics::get().open_connections.valid());
}

TEST(SvcScaleOut, EvictSessionReturnsStateAndForgets) {
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("mover", {40.0, 40.0});
    const std::string add_with_rid =
        R"({"v":1,"id":7,"op":"add_job","session":"mover",)"
        R"("demands":[4,2],"rid":"r1"})";
    client.call_line(add_with_rid);
    Json out = client.evict_session("mover");
    ASSERT_NE(out.find("snapshot"), nullptr);
    // The rid window rides in the snapshot, once.
    EXPECT_EQ(out.find("dedup"), nullptr);
    const Json* window = out.find("snapshot")->find("dedup");
    ASSERT_NE(window, nullptr);
    ASSERT_EQ(window->as_array().size(), 1u);
    EXPECT_EQ(out.number_or("seq", -1.0), 1.0);
    // The session is gone; addressing it is a typed no_session error.
    try {
      client.solve("mover");
      FAIL() << "solve after evict must fail";
    } catch (const SvcError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNoSession);
    }
    // Its snapshot restores elsewhere (here: same server, new name via
    // create_session body passthrough).
    Json body = Json::object();
    body.set("snapshot", *out.find("snapshot"));
    client.call(Op::kCreateSession, "mover", std::move(body));
    Json solved = client.solve("mover");
    EXPECT_TRUE(solved.bool_or("ok", false));
    // The window came along: a retry of the rid is re-ACKed, not applied.
    const Json retried = Json::parse(client.call_line(add_with_rid));
    EXPECT_TRUE(retried.bool_or("dup", false)) << retried.dump();
    EXPECT_EQ(retried.number_or("seq", -1.0), 1.0);
  }
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcScaleOut, EvictServesAWindowParkedBatchAtOnce) {
  // A 4 s batch window parks the session's slice on the executor timer
  // with one delta queued. Evicting the session serves that delta at once
  // instead of waiting out the window, so the one reactor keeps serving
  // its other connection.
  ServerConfig config;
  config.tcp_port = 0;
  config.io_threads = 1;
  Server server(config);
  server.start();
  {
    Client owner = Client::connect_tcp("127.0.0.1", server.tcp_port());
    Client other = Client::connect_tcp("127.0.0.1", server.tcp_port());
    Json overrides = Json::object();
    overrides.set("batch_window_ms", Json(4000.0));
    owner.create_session("slow", {40.0, 40.0}, std::move(overrides));
    owner.add_job("slow", {4.0, 2.0});
    const auto start = Clock::now();
    Json out;
    Clock::time_point evict_done;
    std::thread evictor([&] {
      out = owner.evict_session("slow");
      evict_done = Clock::now();
    });
    // Give the eviction time to reach the reactor before pinging on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto ping_start = Clock::now();
    EXPECT_TRUE(other.ping());
    EXPECT_LT(Clock::now() - ping_start, std::chrono::milliseconds(1000));
    evictor.join();
    EXPECT_LT(evict_done - start, std::chrono::milliseconds(1000));
    EXPECT_EQ(out.number_or("seq", -1.0), 1.0);
    const Json* snapshot = out.find("snapshot");
    ASSERT_NE(snapshot, nullptr);
    ASSERT_NE(snapshot->find("jobs"), nullptr);
    EXPECT_EQ(snapshot->find("jobs")->as_array().size(), 1u);
  }
  server.trigger_drain();
  server.wait_drained();
}

}  // namespace
}  // namespace amf::svc
