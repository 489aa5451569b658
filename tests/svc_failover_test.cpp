// svc_failover_test.cpp — the full failover drill (DESIGN.md §15): a
// repl-ack primary is killed with SIGKILL mid-traffic behind a
// fault-injecting ChaosProxy, the warm standby is promoted, and the
// client's endpoint list carries it over. Every delta the client saw
// succeed must be present exactly once on the promoted standby, and the
// promoted allocation must be bit-identical to an uncrashed reference
// server fed the same ops. The kill -9 test forks a real child server —
// safe because gtest_discover_tests runs each test in its own process.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"

namespace amf::svc {
namespace {

using test::fresh_dir;

/// Picks a currently-free loopback port (bind ephemeral, read, close).
/// SO_REUSEADDR on the real bind makes the tiny reuse window safe.
int pick_port() {
  int port = 0;
  Socket listener = listen_tcp(0, &port);
  return port;
}

Client await_tcp(int port, RetryPolicy retry = RetryPolicy()) {
  for (int i = 0; i < 500; ++i) {
    try {
      return Client::connect_tcp("127.0.0.1", port, retry);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  throw util::ContractError("server on port " + std::to_string(port) +
                            " never came up");
}

TEST(SvcFailover, Kill9PrimaryMidTrafficPromoteStandbyZeroAckedLoss) {
  const std::string primary_dir = fresh_dir("svc_failover_pr");
  const std::string standby_dir = fresh_dir("svc_failover_sb");
  const int primary_port = pick_port();
  const int repl_port = pick_port();

  // Fork FIRST, while this process is still single-threaded. The child
  // is the repl-ack primary: every delta it ACKs was confirmed by the
  // standby, so SIGKILL can never lose an ACKed delta by construction.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      ServerConfig config;
      config.tcp_port = primary_port;
      config.journal_dir = primary_dir;
      config.fsync = FsyncPolicy::kAlways;
      config.replicate_to = "127.0.0.1:" + std::to_string(repl_port);
      config.repl_ack = true;
      config.repl_ack_timeout_ms = 8000;
      Server server(config);
      server.start();
      server.wait_drained();  // never drains — SIGKILL ends it
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }

  // Parent: the warm standby plus a chaos proxy in front of the primary.
  ServerConfig standby_config;
  standby_config.tcp_port = 0;
  standby_config.standby_port = repl_port;
  standby_config.journal_dir = standby_dir;
  Server standby(standby_config);
  standby.start();

  ChaosConfig chaos;
  chaos.upstream_port = primary_port;
  chaos.seed = 42;
  chaos.p_reset = 0.05;
  chaos.p_torn_write = 0.05;
  chaos.p_split = 0.2;
  chaos.delay_ms = 1.0;
  ChaosProxy proxy(chaos);
  proxy.start();

  // Session birth goes straight to the primary (create_session is not
  // retryable, so it must not meet injected resets).
  {
    Client direct = await_tcp(primary_port);
    direct.create_session("s", {1000, 800});
  }

  // Delta traffic through the proxy, with the standby as the fallback
  // endpoint. Generous retries: every op must eventually succeed, on the
  // primary or (after the kill) on the promoted standby — rid dedup makes
  // the handover exactly-once even when an ACK died with the primary.
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.connect_timeout_ms = 400;
  retry.read_timeout_ms = 2000;
  retry.backoff_initial_ms = 5;
  retry.backoff_max_ms = 100;
  retry.jitter_seed = 17;
  std::vector<Endpoint> endpoints{
      parse_endpoint("127.0.0.1:" + std::to_string(proxy.port())),
      parse_endpoint("127.0.0.1:" + std::to_string(standby.tcp_port()))};
  Client client = Client::connect_endpoints(endpoints, retry);

  const int kOps = 60;
  const int kKillAt = 30;
  std::vector<long long> jobs;
  bool killed = false;
  for (int i = 0; i < kOps; ++i) {
    if (i == kKillAt) {
      ASSERT_EQ(::kill(child, SIGKILL), 0);
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status));
      killed = true;
      // Operator failover: promote the standby under a higher epoch.
      Json promoted = standby.promote();
      EXPECT_TRUE(promoted.bool_or("promoted", false));
      EXPECT_FALSE(standby.is_standby());
    }
    // Unique demands per op so the final state audits exactly-once by
    // construction: a duplicated add_job would change the allocation.
    jobs.push_back(client.add_job("s", {double(i + 1), double(kOps - i)}));
    if (i % 7 == 3) {
      client.finish_job("s", jobs[static_cast<std::size_t>(i / 2)]);
    }
    if (i % 5 == 0) {
      EXPECT_TRUE(client.solve("s").bool_or("ok", false));
    }
  }
  ASSERT_TRUE(killed);
  EXPECT_GE(client.client_stats().failovers, 1u);
  EXPECT_GT(proxy.faults(), 0) << "the chaos schedule never fired";

  const std::string promoted_solve =
      client.solve("s").find("allocation")->dump();
  const std::string promoted_snapshot =
      client.snapshot("s").find("snapshot")->dump();

  // Reference: an uncrashed server fed the identical op sequence. Job
  // handles are assigned in arrival order on both sides, so the replayed
  // sequence is op-for-op identical.
  ServerConfig ref_config;
  ref_config.tcp_port = 0;
  Server ref_server(ref_config);
  ref_server.start();
  Client ref = Client::connect_tcp("127.0.0.1", ref_server.tcp_port());
  ref.create_session("s", {1000, 800});
  std::vector<long long> ref_jobs;
  for (int i = 0; i < kOps; ++i) {
    ref_jobs.push_back(ref.add_job("s", {double(i + 1), double(kOps - i)}));
    if (i % 7 == 3)
      ref.finish_job("s", ref_jobs[static_cast<std::size_t>(i / 2)]);
  }
  EXPECT_EQ(jobs, ref_jobs) << "job handles diverged across the failover";
  EXPECT_EQ(promoted_solve, ref.solve("s").find("allocation")->dump());
  EXPECT_EQ(promoted_snapshot, ref.snapshot("s").find("snapshot")->dump());

  // The promoted standby outranks the dead primary's persisted epoch.
  EXPECT_GT(standby.epoch(), read_epoch_file(primary_dir));

  proxy.stop();
  standby.trigger_drain();
  standby.wait_drained();
}

TEST(SvcFailover, PromotedStandbySurvivesItsOwnRestartFromJournal) {
  // The standby journals what it applies, so a promoted standby that
  // itself restarts recovers the replicated state — HA composes with
  // PR 5's crash recovery.
  const std::string standby_dir = fresh_dir("svc_failover_sb_restart");
  std::string ref_solve;
  {
    ServerConfig standby_config;
    standby_config.tcp_port = 0;
    standby_config.standby_port = 0;
    standby_config.journal_dir = standby_dir;
    Server standby(standby_config);
    standby.start();

    ServerConfig primary_config;
    primary_config.tcp_port = 0;
    primary_config.journal_dir = fresh_dir("svc_failover_pr_restart");
    primary_config.replicate_to =
        "127.0.0.1:" + std::to_string(standby.repl_port());
    primary_config.repl_ack = true;
    Server primary(primary_config);
    primary.start();

    Client client = Client::connect_tcp("127.0.0.1", primary.tcp_port());
    client.create_session("s", {50, 50});
    client.add_job("s", {30, 10});
    client.add_job("s", {10, 30});
    ref_solve = client.solve("s").find("allocation")->dump();

    standby.promote();
    const long long epoch = standby.epoch();
    standby.trigger_drain();
    standby.wait_drained();
    EXPECT_EQ(read_epoch_file(standby_dir), epoch);
  }
  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = standby_dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 1);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(client.solve("s").find("allocation")->dump(), ref_solve);
  server.trigger_drain();
  server.wait_drained();
}

}  // namespace
}  // namespace amf::svc
