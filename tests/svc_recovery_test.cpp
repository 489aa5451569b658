// svc_recovery_test.cpp — crash recovery: a journaled server killed with
// SIGKILL must come back bit-identical to an uncrashed server at the
// same ACKed prefix, torn logs must truncate-and-serve, and the client
// timeout/retry machinery must be typed. The kill -9 test forks a real
// child server process — safe here because gtest_discover_tests runs
// every test in its own process.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"

namespace amf::svc {
namespace {

using test::fresh_dir;

/// The delta workload both the reference and the crashed server receive.
void feed_session(Client* client) {
  client->create_session("s", {100, 80, 60});
  const long long a = client->add_job("s", {50, 10, 0});
  client->add_job("s", {20, 20, 20}, {}, 2.0);
  client->add_job("s", {0, 30, 30});
  client->finish_job("s", a);
  client->site_event("s", 2, 0.5);
  client->set_capacity("s", 0, 90);
}

/// Blocks until the unix socket accepts a connection (the child server
/// is up), with a hard deadline.
Client await_server(const std::string& sock_path) {
  for (int i = 0; i < 500; ++i) {
    try {
      return Client::connect_unix(sock_path);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  throw util::ContractError("server at " + sock_path + " never came up");
}

TEST(SvcRecovery, Kill9ThenRestartIsBitIdenticalToUncrashedServer) {
  const std::string dir = fresh_dir("svc_recovery_kill9");
  const std::string sock = dir + "/crash.sock";
  std::remove(sock.c_str());

  // Fork FIRST, while this process is still single-threaded (in-process
  // Servers spawn threads; forking after that is undefined enough).
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: a journaled server with the strictest durability. It never
    // drains — SIGKILL is the only way it ends.
    try {
      ServerConfig config;
      config.unix_path = sock;
      config.journal_dir = dir;
      config.fsync = FsyncPolicy::kAlways;
      Server server(config);
      server.start();
      server.wait_drained();
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }

  // Parent: feed ACKed deltas, then pull the plug with no warning.
  {
    Client client = await_server(sock);
    feed_session(&client);
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Reference: an uncrashed in-process server fed the identical ops.
  std::string ref_solve;
  std::string ref_snapshot;
  {
    ServerConfig config;
    config.tcp_port = 0;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    feed_session(&client);
    ref_solve = client.solve("s").find("allocation")->dump();
    ref_snapshot = client.snapshot("s").find("snapshot")->dump();
    server.trigger_drain();
    server.wait_drained();
  }

  // Recovery: replay the journal, then the pin — allocation AND the full
  // problem snapshot must be byte-identical to the uncrashed server.
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    config.fsync = FsyncPolicy::kAlways;
    Server server(config);
    const RecoveryReport report = server.recover_from_journal();
    EXPECT_TRUE(report.warnings.empty())
        << "unexpected warning: " << report.warnings.front();
    EXPECT_EQ(report.sessions, 1);
    EXPECT_EQ(report.deltas, 6);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    EXPECT_EQ(client.solve("s").find("allocation")->dump(), ref_solve);
    EXPECT_EQ(client.snapshot("s").find("snapshot")->dump(), ref_snapshot);
    // Graceful drain compacts the journal to one snapshot record.
    server.trigger_drain();
    server.wait_drained();
  }
  {
    const JournalReplay replay = Journal::read_all(dir + "/s.wal");
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(Json::parse(replay.records[0].payload).string_or("t", ""),
              "snapshot");
  }

  // Second-generation recovery from the compacted snapshot record: the
  // allocation is still bit-identical and nothing needs replaying (seq
  // continuity is carried by the snapshot record).
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    Server server(config);
    const RecoveryReport report = server.recover_from_journal();
    EXPECT_EQ(report.sessions, 1);
    EXPECT_EQ(report.deltas, 0);
    EXPECT_TRUE(report.warnings.empty());
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    Json solved = client.solve("s");
    EXPECT_EQ(solved.find("allocation")->dump(), ref_solve);
    EXPECT_EQ(solved.number_or("seq", -1.0), 6.0);
    server.trigger_drain();
    server.wait_drained();
  }
}

/// Sends the same rid-tagged add_job and returns the parsed response.
Json add_job_with_rid(Client* client) {
  return Json::parse(client->call_line(
      R"({"v":1,"id":7,"op":"add_job","session":"d",)"
      R"("demands":[4,2],"rid":"r1"})"));
}

/// The retry after a restart: the original ACK with dup, and no second job.
void expect_retry_is_dup(Client* client) {
  const Json retried = add_job_with_rid(client);
  EXPECT_TRUE(retried.bool_or("dup", false)) << retried.dump();
  EXPECT_EQ(retried.number_or("seq", -1.0), 1.0);
  EXPECT_EQ(retried.number_or("job", -1.0), 0.0);
  EXPECT_EQ(client->snapshot("d").find("snapshot")->find("jobs")
                ->as_array().size(), 1u);
}

TEST(SvcRecovery, DedupWindowSurvivesDrainCompaction) {
  // A drain compacts the journal to one snapshot record; the rid window
  // must travel in that record, or a retry after the restart re-applies.
  const std::string dir = fresh_dir("svc_recovery_dedup");
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("d", {40, 40});
    const Json first = add_job_with_rid(&client);
    ASSERT_EQ(first.number_or("seq", -1.0), 1.0) << first.dump();
    ASSERT_EQ(first.number_or("job", -1.0), 0.0) << first.dump();
    server.trigger_drain();
    server.wait_drained();
  }
  ASSERT_EQ(Journal::read_all(dir + "/d.wal").records.size(), 1u);
  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 1);
  EXPECT_EQ(report.deltas, 0);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  expect_retry_is_dup(&client);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcRecovery, DedupWindowSurvivesDrainFileRestore) {
  const std::string dir = fresh_dir("svc_recovery_dedup_restore");
  const std::string snapshot = dir + "/drain.json";
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.snapshot_path = snapshot;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("d", {40, 40});
    ASSERT_EQ(add_job_with_rid(&client).number_or("seq", -1.0), 1.0);
    server.trigger_drain();
    server.wait_drained();
  }
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.restore_from_file(snapshot);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  expect_retry_is_dup(&client);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcRecovery, TornTailIsTruncatedAndTheServerStillStarts) {
  const std::string dir = fresh_dir("svc_recovery_torn");
  const std::string wal = dir + "/t.wal";
  {
    Journal journal(wal, FsyncPolicy::kOff, /*truncate=*/true);
    journal.append(
        R"({"t":"create","session":"t","policy":"amf","batch_window_ms":0,)"
        R"("default_budget_ms":0,"capacities":[10,10]})");
    journal.append(
        R"({"t":"delta","seq":1,"op":"add_job","job":0,"demands":[5,5],)"
        R"("weight":1})");
  }
  // The crash tore the final append mid-record.
  const std::string torn = Journal::frame(
      R"({"t":"delta","seq":2,"op":"add_job","job":1,"demands":[1,1]})");
  {
    std::FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(torn.data(), 1, torn.size() - 5, f);
    std::fclose(f);
  }

  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("torn"), std::string::npos)
      << report.warnings[0];
  EXPECT_EQ(report.sessions, 1);
  EXPECT_EQ(report.deltas, 1);
  // The file was truncated to the applied prefix on disk.
  EXPECT_FALSE(Journal::read_all(wal).truncated);

  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  Json solved = client.solve("t");
  EXPECT_EQ(solved.find("allocation")->find("jobs")->as_array().size(), 1u);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcRecovery, SeqGapStopsReplayAtTheLastGoodPrefix) {
  const std::string dir = fresh_dir("svc_recovery_gap");
  const std::string wal = dir + "/t.wal";
  {
    Journal journal(wal, FsyncPolicy::kOff, /*truncate=*/true);
    journal.append(
        R"({"t":"create","session":"t","policy":"amf","batch_window_ms":0,)"
        R"("default_budget_ms":0,"capacities":[10,10]})");
    journal.append(
        R"({"t":"delta","seq":1,"op":"add_job","job":0,"demands":[5,5],)"
        R"("weight":1})");
    // seq 3: a record is missing — everything from here is untrusted.
    journal.append(
        R"({"t":"delta","seq":3,"op":"add_job","job":1,"demands":[1,1],)"
        R"("weight":1})");
  }

  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 1);
  EXPECT_EQ(report.deltas, 1);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("seq gap"), std::string::npos)
      << report.warnings[0];
  // The log was truncated at the gap on disk: only the create record and
  // the applied delta remain, and they scan clean.
  const JournalReplay replay = Journal::read_all(wal);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.records.size(), 2u);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcRecovery, RestoreFileWinsOverJournalForItsSessions) {
  const std::string dir = fresh_dir("svc_recovery_restore_wins");
  const std::string wal = dir + "/s.wal";
  std::string snapshot_path = dir + "/snap.json";
  // A drained server leaves both a snapshot file and a compacted journal.
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    config.snapshot_path = snapshot_path;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("s", {10, 10});
    client.add_job("s", {5, 5});
    server.trigger_drain();
    server.wait_drained();
  }
  // Restore then recover: the journal for "s" is skipped with a warning,
  // and the session serves the restored state.
  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  server.restore_from_file(snapshot_path);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 0);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("already restored"), std::string::npos);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(
      client.solve("s").find("allocation")->find("jobs")->as_array().size(),
      1u);
  server.trigger_drain();
  server.wait_drained();
}

// ---------------------------------------------------------------------
// Client timeouts and retry typing

TEST(SvcRecovery, ClientTimesOutAgainstSilentListener) {
  // A listener that accepts into its backlog but never responds.
  int port = 0;
  Socket listener = listen_tcp(0, &port);

  RetryPolicy retry;
  retry.read_timeout_ms = 50;
  Client client = Client::connect_tcp("127.0.0.1", port, retry);
  try {
    client.ping();
    FAIL() << "ping against a silent listener must time out";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

TEST(SvcRecovery, RetriesAgainstSilentListenerExhaustTyped) {
  int port = 0;
  Socket listener = listen_tcp(0, &port);

  RetryPolicy retry;
  retry.read_timeout_ms = 30;
  retry.max_attempts = 3;
  retry.backoff_initial_ms = 1;
  retry.backoff_max_ms = 4;
  retry.jitter_seed = 7;  // deterministic backoff schedule
  Client client = Client::connect_tcp("127.0.0.1", port, retry);
  const auto start = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "retries against a silent listener must exhaust";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted);
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos)
        << e.what();
  }
  // 3 timed-out reads plus 2 backoffs: bounded well under a second.
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 3 * 30.0 - 5.0);
  EXPECT_LT(elapsed_ms, 2000.0);
}

TEST(SvcRecovery, ClientReconnectsAndRetriesAcrossServerRestart) {
  // An idempotent solve retried across a dead endpoint: first attempt
  // dies (no server), the retry lands after the server comes up.
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  const int port = server.tcp_port();
  Client client = Client::connect_tcp("127.0.0.1", port);
  client.create_session("r", {10});
  client.add_job("r", {5});

  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.connect_timeout_ms = 200;
  retry.read_timeout_ms = 500;
  retry.backoff_initial_ms = 5;
  retry.jitter_seed = 11;
  Client retrying = Client::connect_tcp("127.0.0.1", port, retry);
  EXPECT_TRUE(retrying.ping());
  // Kill the connection under the client: the next call must reconnect
  // transparently instead of surfacing a dead socket.
  server.trigger_drain();
  server.wait_drained();
  try {
    retrying.ping();
  } catch (const SvcError& e) {
    // Acceptable: the server is gone for good; what matters is the code.
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted);
  }
}

// ---------------------------------------------------------------------
// Birth records: what a restored or recovered session carries

/// Session "p": PSMF with a 50 ms default budget and two jobs whose PSMF
/// allocation differs from the AMF one, so a lost policy shows.
void feed_psmf_session(Client* client) {
  Json overrides = Json::object();
  overrides.set("policy", Json("psmf"));
  overrides.set("default_budget_ms", Json(50.0));
  client->create_session("p", {3, 3}, std::move(overrides));
  client->add_job("p", {3, 3});
  client->add_job("p", {0, 3});
}

TEST(SvcRestore, DrainThenRestoreKeepsPolicyBudgetSeqAndAllocation) {
  const std::string dir = fresh_dir("svc_restore_carries_config");
  const std::string snapshot_path = dir + "/snap.json";
  std::string before;
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.snapshot_path = snapshot_path;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    feed_psmf_session(&client);
    Json solved = client.solve("p");
    EXPECT_EQ(solved.number_or("budget_ms", 0.0), 50.0);
    before = solved.find("allocation")->dump();
    server.trigger_drain();
    server.wait_drained();
  }
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.restore_from_file(snapshot_path);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  Json solved = client.solve("p");
  EXPECT_EQ(solved.find("allocation")->string_or("policy", ""), "PSMF");
  EXPECT_EQ(solved.find("allocation")->dump(), before);
  EXPECT_EQ(solved.number_or("budget_ms", 0.0), 50.0);
  EXPECT_EQ(solved.number_or("seq", -1.0), 2.0);
  // The next delta continues the pre-drain numbering.
  Json job = Json::object();
  job.set("demands", to_json({1, 1}));
  EXPECT_EQ(
      client.call(Op::kAddJob, "p", std::move(job)).number_or("seq", -1.0),
      3.0);
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcRecovery, InvalidBirthRecordsAreSkippedWithAWarning) {
  const std::string dir = fresh_dir("svc_recovery_bad_birth");
  {
    Journal budget(dir + "/s.wal", FsyncPolicy::kOff, /*truncate=*/true);
    budget.append(
        R"({"t":"create","session":"s","policy":"amf","batch_window_ms":0,)"
        R"("default_budget_ms":-5,"capacities":[10,10]})");
    Journal resources(dir + "/t.wal", FsyncPolicy::kOff, /*truncate=*/true);
    resources.append(
        R"({"t":"create","session":"t","policy":"amf","batch_window_ms":0,)"
        R"("default_budget_ms":0,"resources":1e300,"capacities":[10,10]})");
  }
  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 0);
  ASSERT_EQ(report.warnings.size(), 2u);
  EXPECT_NE(report.warnings[0].find("default_budget_ms"), std::string::npos)
      << report.warnings[0];
  EXPECT_NE(report.warnings[1].find("resources"), std::string::npos)
      << report.warnings[1];
  for (const std::string& warning : report.warnings)
    EXPECT_NE(warning.find("skipping this journal"), std::string::npos)
        << warning;
  server.trigger_drain();
}

}  // namespace
}  // namespace amf::svc
