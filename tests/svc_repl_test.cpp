// svc_repl_test.cpp — primary → warm-standby replication (DESIGN.md §15):
// the journal stream keeps the standby bit-identical to the primary's
// ACKed state, promotion fences the deposed primary under a higher
// epoch, repl-ack mode withholds client ACKs until the standby confirms,
// and the client rotates through its endpoint list on failures and
// not_primary responses.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/net.hpp"
#include "svc/repl.hpp"
#include "svc/server.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"

namespace amf::svc {
namespace {

using test::fresh_dir;

/// The delta workload used across the replication tests.
void feed_session(Client* client) {
  client->create_session("s", {100, 80, 60});
  const long long a = client->add_job("s", {50, 10, 0});
  client->add_job("s", {20, 20, 20}, {}, 2.0);
  client->add_job("s", {0, 30, 30});
  client->finish_job("s", a);
  client->site_event("s", 2, 0.5);
  client->set_capacity("s", 0, 90);
}

/// Spins until the primary's sender has everything confirmed (async mode
/// drains in the background) or the deadline passes.
void await_replicated(const Server& primary, double deadline_ms = 5000.0) {
  const auto start = std::chrono::steady_clock::now();
  const ReplSender* sender = primary.repl_sender();
  ASSERT_NE(sender, nullptr);
  while (sender->acked_index() < sender->offered()) {
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_LT(elapsed, deadline_ms)
        << "replication never drained: offered=" << sender->offered()
        << " acked=" << sender->acked_index()
        << " fenced=" << sender->fenced() << " broken=" << sender->broken();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct Pair {
  std::unique_ptr<Server> standby;
  std::unique_ptr<Server> primary;
};

/// Starts a standby (journaled) and a primary (journaled) streaming to
/// it. Caller owns both; drain order does not matter.
Pair start_pair(const std::string& test, bool repl_ack,
                double ack_timeout_ms = 5000.0) {
  Pair pair;
  ServerConfig standby;
  standby.tcp_port = 0;
  standby.standby_port = 0;
  standby.journal_dir = fresh_dir(test + "_sb");
  pair.standby = std::make_unique<Server>(standby);
  pair.standby->start();

  ServerConfig primary;
  primary.tcp_port = 0;
  primary.journal_dir = fresh_dir(test + "_pr");
  primary.replicate_to =
      "127.0.0.1:" + std::to_string(pair.standby->repl_port());
  primary.repl_ack = repl_ack;
  primary.repl_ack_timeout_ms = ack_timeout_ms;
  pair.primary = std::make_unique<Server>(primary);
  pair.primary->start();
  return pair;
}

TEST(SvcRepl, StreamedStandbyPromotesToBitIdenticalState) {
  Pair pair = start_pair("svc_repl_stream", /*repl_ack=*/false);

  std::string ref_solve, ref_snapshot;
  {
    Client client =
        Client::connect_tcp("127.0.0.1", pair.primary->tcp_port());
    feed_session(&client);
    ref_solve = client.solve("s").find("allocation")->dump();
    ref_snapshot = client.snapshot("s").find("snapshot")->dump();
  }
  await_replicated(*pair.primary);

  // Before promotion the standby refuses session work with a typed code.
  EXPECT_TRUE(pair.standby->is_standby());
  {
    Client client =
        Client::connect_tcp("127.0.0.1", pair.standby->tcp_port());
    EXPECT_TRUE(client.ping());  // liveness is served either way
    try {
      client.solve("s");
      FAIL() << "an unpromoted standby must refuse session work";
    } catch (const SvcError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNotPrimary);
    }
  }

  const long long old_epoch = pair.standby->epoch();
  Json promoted = pair.standby->promote();
  EXPECT_TRUE(promoted.bool_or("promoted", false));
  EXPECT_FALSE(pair.standby->is_standby());
  EXPECT_GT(pair.standby->epoch(), old_epoch);

  // The promoted standby serves the primary's exact ACKed state.
  Client client = Client::connect_tcp("127.0.0.1", pair.standby->tcp_port());
  EXPECT_EQ(client.solve("s").find("allocation")->dump(), ref_solve);
  EXPECT_EQ(client.snapshot("s").find("snapshot")->dump(), ref_snapshot);
}

TEST(SvcRepl, PromoteIsIdempotentAndBumpsEpochOnce) {
  Pair pair = start_pair("svc_repl_promote_idem", /*repl_ack=*/false);
  Json first = pair.standby->promote();
  EXPECT_TRUE(first.bool_or("promoted", false));
  const long long epoch = pair.standby->epoch();
  Json second = pair.standby->promote();
  EXPECT_FALSE(second.bool_or("promoted", false));
  EXPECT_EQ(pair.standby->epoch(), epoch);
  EXPECT_EQ(static_cast<long long>(second.number_or("epoch", -1.0)), epoch);
}

TEST(SvcRepl, ReplAckConfirmsEveryDeltaBeforeTheClientSeesTheAck) {
  Pair pair = start_pair("svc_repl_ack", /*repl_ack=*/true);
  Client client = Client::connect_tcp("127.0.0.1", pair.primary->tcp_port());
  feed_session(&client);
  // In repl-ack mode an ACKed delta IS a confirmed delta: by the time the
  // last ACK arrived, the standby had everything. No await needed.
  const ReplSender* sender = pair.primary->repl_sender();
  ASSERT_NE(sender, nullptr);
  EXPECT_EQ(sender->acked_index(), sender->offered());

  const std::string ref_solve = client.solve("s").find("allocation")->dump();
  pair.standby->promote();
  Client standby_client =
      Client::connect_tcp("127.0.0.1", pair.standby->tcp_port());
  EXPECT_EQ(standby_client.solve("s").find("allocation")->dump(), ref_solve);
}

TEST(SvcRepl, DeposedPrimaryIsFencedAfterPromotion) {
  Pair pair = start_pair("svc_repl_fence", /*repl_ack=*/true,
                         /*ack_timeout_ms=*/2000.0);
  Client client = Client::connect_tcp("127.0.0.1", pair.primary->tcp_port());
  client.create_session("s", {10, 10});
  client.add_job("s", {5, 5});

  // Promote the standby while the old primary still streams to it. The
  // standby's receiver now rejects the stream under its higher epoch.
  pair.standby->promote();

  // The deposed primary's next repl-ack delta cannot confirm: the typed
  // not_primary error tells the caller to fail over. The delta stays
  // applied locally (seq reuse would silently diverge the standby).
  try {
    client.add_job("s", {1, 1});
    FAIL() << "a fenced primary must fail repl-ack deltas";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotPrimary) << e.what();
  }
  EXPECT_TRUE(pair.primary->repl_sender()->fenced());
  EXPECT_GE(pair.primary->repl_sender()->peer_epoch(),
            pair.standby->epoch());
}

TEST(SvcRepl, EpochFileSurvivesRestart) {
  const std::string dir = fresh_dir("svc_repl_epoch_file");
  EXPECT_EQ(read_epoch_file(dir), 0);
  write_epoch_file(dir, 7);
  EXPECT_EQ(read_epoch_file(dir), 7);
  write_epoch_file(dir, 8);
  EXPECT_EQ(read_epoch_file(dir), 8);

  // A restarted journaled server resumes its persisted epoch.
  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  EXPECT_EQ(server.epoch(), 8);
}

// ---------------------------------------------------------------------
// Client endpoint failover

TEST(SvcRepl, ClientRotatesToNextEndpointWhenTheFirstDies) {
  ServerConfig config_a;
  config_a.tcp_port = 0;
  auto server_a = std::make_unique<Server>(config_a);
  server_a->start();
  ServerConfig config_b;
  config_b.tcp_port = 0;
  Server server_b(config_b);
  server_b.start();

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.connect_timeout_ms = 300;
  retry.read_timeout_ms = 500;
  retry.backoff_initial_ms = 2;
  retry.backoff_max_ms = 10;
  retry.jitter_seed = 5;
  std::vector<Endpoint> endpoints{
      parse_endpoint("127.0.0.1:" + std::to_string(server_a->tcp_port())),
      parse_endpoint("127.0.0.1:" + std::to_string(server_b.tcp_port()))};
  Client client = Client::connect_endpoints(endpoints, retry);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.client_stats().failovers, 0u);

  // Endpoint A dies; the next ping must land on B transparently.
  server_a->trigger_drain();
  server_a->wait_drained();
  server_a.reset();
  EXPECT_TRUE(client.ping());
  EXPECT_GE(client.client_stats().failovers, 1u);
  EXPECT_GE(client.client_stats().reconnects, 1u);
}

TEST(SvcRepl, ClientRotatesOffAnUnpromotedStandby) {
  Pair pair = start_pair("svc_repl_client_rotate", /*repl_ack=*/false);
  Client primary_client =
      Client::connect_tcp("127.0.0.1", pair.primary->tcp_port());
  primary_client.create_session("s", {10, 10});
  await_replicated(*pair.primary);

  // Endpoint list leads with the (unpromoted) standby: session work gets
  // not_primary there and must rotate to the real primary.
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.connect_timeout_ms = 300;
  retry.read_timeout_ms = 500;
  retry.backoff_initial_ms = 2;
  retry.jitter_seed = 9;
  std::vector<Endpoint> endpoints{
      parse_endpoint("127.0.0.1:" + std::to_string(pair.standby->tcp_port())),
      parse_endpoint("127.0.0.1:" + std::to_string(pair.primary->tcp_port()))};
  Client client = Client::connect_endpoints(endpoints, retry);
  Json solved = client.solve("s");
  EXPECT_TRUE(solved.bool_or("ok", false));
  EXPECT_GE(client.client_stats().failovers, 1u);
}

// Satellite: connect-phase timeouts must count in ClientStats::timeouts
// exactly like read timeouts — one per timed-out endpoint attempt.
TEST(SvcRepl, ConnectTimeoutsAreCountedPerEndpointAttempt) {
  // A unix listener with a zero backlog whose accept queue is already
  // full: further nonblocking connects get EAGAIN, so the client's
  // poll-bounded connect times out deterministically (nobody ever
  // accepts).
  const std::string dir = fresh_dir("svc_repl_conn_timeout");
  const std::string path = dir + "/full.sock";
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 &&
        errno == EAGAIN) {
      ::close(fd);
      break;  // the queue is full — exactly the state the test needs
    }
    fillers.push_back(fd);
  }

  // A live fallback server so the client construction succeeds after the
  // timed-out first endpoint.
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();

  RetryPolicy retry;
  retry.connect_timeout_ms = 80;
  retry.read_timeout_ms = 500;
  retry.max_attempts = 2;
  retry.backoff_initial_ms = 1;
  retry.jitter_seed = 3;
  std::vector<Endpoint> endpoints{
      parse_endpoint("unix:" + path),
      parse_endpoint("127.0.0.1:" + std::to_string(server.tcp_port()))};
  Client client = Client::connect_endpoints(endpoints, retry);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.client_stats().timeouts, 1u)
      << "the connect-phase timeout on the full endpoint must be counted";
  EXPECT_EQ(client.client_stats().failovers, 1u);

  for (int fd : fillers) ::close(fd);
  ::close(listener);
}

// Satellite: keepalive on accepted and client TCP sockets.
TEST(SvcRepl, KeepaliveIsEnabledOnBothEndsOfATcpConnection) {
  int port = 0;
  Socket listener = listen_tcp(0, &port);
  Socket client = connect_tcp("127.0.0.1", port, 1000.0);
  Socket accepted = accept_connection(listener);
  ASSERT_TRUE(accepted.valid());
  for (const int fd : {client.fd(), accepted.fd()}) {
    int value = 0;
    socklen_t len = sizeof(value);
    ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &value, &len), 0);
    EXPECT_EQ(value, 1) << "fd " << fd << " lacks SO_KEEPALIVE";
  }
}

TEST(SvcRepl, StandbyRejectsAnInvalidBirthRecord) {
  ServerConfig config;
  config.tcp_port = 0;
  config.standby_port = 0;
  config.journal_dir = fresh_dir("svc_repl_bad_birth");
  Server standby(config);
  standby.start();
  for (const char* birth :
       {R"({"t":"create","session":"b","default_budget_ms":-5,)"
        R"("capacities":[10,10]})",
        R"({"t":"create","session":"b","resources":1e300,)"
        R"("capacities":[10,10]})"}) {
    ReplSenderConfig sender_config;
    sender_config.port = standby.repl_port();
    ReplSender sender(sender_config, /*epoch=*/1);
    sender.start();
    std::uint64_t index = 0;
    ASSERT_TRUE(sender.offer("b", birth, &index));
    EXPECT_EQ(sender.wait_acked(index, 5000.0),
              ReplSender::WaitResult::kBroken)
        << birth;
    sender.stop();
  }
  Client client = Client::connect_tcp("127.0.0.1", standby.tcp_port());
  EXPECT_TRUE(client.stats().find("sessions")->as_array().empty());
  standby.trigger_drain();
  standby.wait_drained();
}

TEST(SvcRepl, StandbyDropsStreamNumbersOutOfRange) {
  // Epochs and record indices are integers in [0, 2^53]. Anything else
  // (here 1e300, -1, a fraction, and a NaN no JSON parser accepts) drops
  // the stream connection before any integer cast, and the standby keeps
  // serving.
  ServerConfig config;
  config.tcp_port = 0;
  config.standby_port = 0;
  config.journal_dir = fresh_dir("svc_repl_bad_numbers");
  Server standby(config);
  standby.start();
  for (const char* line :
       {R"({"t":"hello","v":1,"epoch":1e300})",
        R"({"t":"hello","v":1,"epoch":-1})",
        R"({"t":"hello","v":1,"epoch":2.5})",
        R"({"t":"rec","i":-1,"epoch":1,"session":"x","record":{}})",
        R"({"t":"rec","i":1e300,"epoch":1,"session":"x","record":{}})",
        R"({"t":"rec","i":NaN,"epoch":1,"session":"x","record":{}})"}) {
    Socket sock = connect_tcp("127.0.0.1", standby.repl_port(), 2000.0);
    ASSERT_TRUE(sock.send_all(std::string(line) + "\n")) << line;
    set_recv_timeout_ms(sock.fd(), 5000.0);
    LineReader reader(sock.fd());
    std::string reply;
    EXPECT_EQ(reader.read_line(&reply), LineReader::Status::kEof)
        << line << " got " << reply;
  }
  // A well-formed stream still attaches and is applied.
  ReplSenderConfig sender_config;
  sender_config.port = standby.repl_port();
  ReplSender sender(sender_config, /*epoch=*/1);
  sender.start();
  std::uint64_t index = 0;
  ASSERT_TRUE(sender.offer(
      "ok", R"({"t":"create","session":"ok","capacities":[10,10]})", &index));
  EXPECT_EQ(sender.wait_acked(index, 5000.0), ReplSender::WaitResult::kAcked);
  sender.stop();
  Client client = Client::connect_tcp("127.0.0.1", standby.tcp_port());
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.stats().find("sessions")->as_array().size(), 1u);
  standby.trigger_drain();
  standby.wait_drained();
}

TEST(SvcRepl, SenderReconnectsOnAStandbyReplyOutOfRange) {
  // A fake standby answers the hello with an epoch no integer holds, then
  // acks with a negative index. The sender casts neither: it drops each
  // connection, reconnects, and is neither fenced nor acked.
  int port = 0;
  Socket listener = listen_tcp(0, &port);
  ReplSenderConfig sender_config;
  sender_config.port = port;
  sender_config.reconnect_initial_ms = 1.0;
  ReplSender sender(sender_config, /*epoch=*/1);
  sender.start();
  std::uint64_t index = 0;
  ASSERT_TRUE(sender.offer(
      "s", R"({"t":"create","session":"s","capacities":[10]})", &index));
  for (const char* reply :
       {R"({"t":"ok","epoch":1e300})", R"({"t":"ok","epoch":1})"}) {
    Socket conn = accept_connection(listener);
    set_recv_timeout_ms(conn.fd(), 5000.0);
    LineReader reader(conn.fd());
    std::string hello;
    ASSERT_EQ(reader.read_line(&hello), LineReader::Status::kLine);
    ASSERT_TRUE(conn.send_all(std::string(reply) + "\n"));
    if (std::string(reply).find("1e300") != std::string::npos) continue;
    std::string rec;
    ASSERT_EQ(reader.read_line(&rec), LineReader::Status::kLine);
    ASSERT_TRUE(conn.send_all(R"({"t":"ack","i":-1})" "\n"));
    std::string rest;
    EXPECT_EQ(reader.read_line(&rest), LineReader::Status::kEof);
  }
  EXPECT_FALSE(sender.fenced());
  EXPECT_FALSE(sender.broken());
  EXPECT_EQ(sender.acked_index(), 0u);
  listener.close();  // resets the sender's next attempt at once
  sender.stop();
}

TEST(SvcRepl, StopInterruptsAStalledHandshake) {
  // The standby's port accepts the connection and reads the hello but
  // never answers it. stop() must not wait out the 2 s reply timeout.
  int port = 0;
  Socket listener = listen_tcp(0, &port);
  ReplSenderConfig sender_config;
  sender_config.port = port;
  ReplSender sender(sender_config, /*epoch=*/1);
  sender.start();
  Socket conn = accept_connection(listener);
  set_recv_timeout_ms(conn.fd(), 5000.0);
  LineReader reader(conn.fd());
  std::string hello;
  ASSERT_EQ(reader.read_line(&hello), LineReader::Status::kLine);
  const auto start = std::chrono::steady_clock::now();
  sender.stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(stop_ms, 500.0);
  EXPECT_FALSE(sender.connected());
}

}  // namespace
}  // namespace amf::svc
