// svc_http_test.cpp — the embedded telemetry endpoint and the wire
// trace/telemetry plumbing around it: HTTP parsing and status codes,
// /metrics · /healthz · /tracez · /slo served from a live server,
// request-trace propagation into the span layer, scrape-vs-traffic
// consistency, and the client's retry/reconnect counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "svc/client.hpp"
#include "svc/http.hpp"
#include "svc/net.hpp"
#include "svc/server.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"

namespace amf::svc {
namespace {

TEST(SvcHttp, ParseAddrAcceptsLoopbackOnly) {
  EXPECT_EQ(parse_http_addr("9100"), 9100);
  EXPECT_EQ(parse_http_addr(":9100"), 9100);
  EXPECT_EQ(parse_http_addr("127.0.0.1:9100"), 9100);
  EXPECT_EQ(parse_http_addr("localhost:0"), 0);
  EXPECT_THROW(parse_http_addr("0.0.0.0:9100"), util::ContractError);
  EXPECT_THROW(parse_http_addr("example.com:80"), util::ContractError);
  EXPECT_THROW(parse_http_addr(""), util::ContractError);
  EXPECT_THROW(parse_http_addr("127.0.0.1:"), util::ContractError);
  EXPECT_THROW(parse_http_addr("port"), util::ContractError);
  EXPECT_THROW(parse_http_addr("127.0.0.1:99999"), util::ContractError);
}

// One raw request line against a listener, first response line returned.
std::string raw_request(int port, const std::string& head) {
  Socket sock = connect_tcp("127.0.0.1", port, 2000.0);
  EXPECT_TRUE(sock.send_all(head + "\r\n\r\n"));
  set_recv_timeout_ms(sock.fd(), 2000.0);
  LineReader reader(sock.fd());
  std::string line;
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  return line;
}

TEST(SvcHttp, ListenerStatusCodes) {
  HttpListener listener(0, [](const std::string& path, const std::string&) {
    HttpResponse resp;
    if (path == "/ok") {
      resp.body = "hello\n";
    } else if (path == "/boom") {
      throw util::ContractError("handler exploded");
    } else {
      resp.status = 404;
      resp.body = "nope\n";
    }
    return resp;
  });
  listener.start();
  ASSERT_GT(listener.port(), 0);

  std::string body;
  int status = 0;
  ASSERT_TRUE(http_get(listener.port(), "/ok", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "hello\n");
  ASSERT_TRUE(http_get(listener.port(), "/missing", &body, &status));
  EXPECT_EQ(status, 404);
  // Handler exceptions become 500s, never a dropped connection.
  ASSERT_TRUE(http_get(listener.port(), "/boom", &body, &status));
  EXPECT_EQ(status, 500);
  EXPECT_NE(body.find("handler exploded"), std::string::npos);
  // Every endpoint is read-only; non-GET methods are refused.
  EXPECT_NE(raw_request(listener.port(), "POST /ok HTTP/1.1")
                .find("405"),
            std::string::npos);
  EXPECT_NE(raw_request(listener.port(), "garbage").find("400"),
            std::string::npos);
  listener.stop();
  EXPECT_FALSE(http_get(listener.port(), "/ok", &body, &status));
}

TEST(SvcHttp, ListenerRateLimitsBursts) {
  HttpOptions options;
  options.rate_per_s = 0.001;  // effectively no refill inside the test
  options.burst = 2.0;
  HttpListener listener(
      0,
      [](const std::string&, const std::string&) {
        HttpResponse resp;
        resp.body = "ok\n";
        return resp;
      },
      options);
  listener.start();
  int ok = 0, limited = 0;
  for (int i = 0; i < 5; ++i) {
    int status = 0;
    ASSERT_TRUE(http_get(listener.port(), "/", nullptr, &status));
    (status == 200 ? ok : limited) += status == 200 || status == 429;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(limited, 3);
  listener.stop();
}

TEST(SvcHttp, ServerEndpointsServeTelemetry) {
  ServerConfig config;
  config.tcp_port = 0;
  config.http_port = 0;
  Server server(config);
  server.start();
  ASSERT_GT(server.http_port(), 0);
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  client.create_session("obs", {50, 50});
  client.add_job("obs", {40, 10});
  client.solve("obs");

  std::string body;
  int status = 0;
  ASSERT_TRUE(http_get(server.http_port(), "/healthz", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"sessions\":1"), std::string::npos);

  ASSERT_TRUE(http_get(server.http_port(), "/metrics", &body, &status));
  EXPECT_EQ(status, 200);
  // Serving metrics, the stage histograms, and the SLO gauges all export
  // through one page.
  EXPECT_NE(body.find("# TYPE amf_svc_requests_total_solve counter"),
            std::string::npos);
  EXPECT_NE(body.find("amf_svc_stage_solve_ms_count"), std::string::npos);
  EXPECT_NE(body.find("amf_svc_stage_parse_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("amf_svc_slo_burn_rate_fast"), std::string::npos);
  EXPECT_NE(body.find("# HELP"), std::string::npos);

  ASSERT_TRUE(http_get(server.http_port(), "/slo", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"p99_target_ms\":"), std::string::npos);

  ASSERT_TRUE(http_get(server.http_port(), "/nope", &body, &status));
  EXPECT_EQ(status, 404);

  const int http_port = server.http_port();
  server.trigger_drain();
  server.wait_drained();
  // The drain tears the telemetry endpoint down with the server.
  EXPECT_FALSE(http_get(http_port, "/healthz", &body, &status));
}

TEST(SvcHttp, TracePropagatesFromClientToTracez) {
  if (!AMF_OBS_ENABLED)
    GTEST_SKIP() << "span macros are compiled out (AMF_OBS_ENABLED=0)";
  const std::string journal_dir = test::fresh_dir("svc_http_wal");
  ServerConfig config;
  config.tcp_port = 0;
  config.http_port = 0;
  config.journal_dir = journal_dir;
  Server server(config);
  server.start();

  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  client.set_tracing(true);
  client.create_session("traced", {10, 10});
  client.add_job("traced", {5, 5});
  const std::uint64_t add_trace = client.last_trace();
  EXPECT_NE(add_trace, 0u);
  client.solve("traced");
  const std::uint64_t solve_trace = client.last_trace();
  EXPECT_NE(solve_trace, add_trace);

  // Spans land in the tracer ring when their scope closes, which for the
  // serve-side spans is a few microseconds *after* the reply reaches the
  // client — poll until the trace settles rather than racing it.
  const std::vector<const char*> spans = {
      "svc/request", "svc/enqueue",         "svc/batch_drain",
      "svc/apply_delta", "svc/allocator",   "svc/journal_append",
      "svc/serve",   "svc/reply"};
  std::string body;
  int status = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    ASSERT_TRUE(http_get(server.http_port(), "/tracez", &body, &status));
    EXPECT_EQ(status, 200);
    bool all = true;
    for (const char* span : spans)
      all = all && body.find(std::string("\"name\":\"") + span + "\"") !=
                       std::string::npos;
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The request's whole life shows up as spans...
  for (const char* span : spans) {
    EXPECT_NE(body.find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << "missing span " << span;
  }
  // ...joined by flow events carrying the client's trace ids.
  EXPECT_NE(body.find("\"cat\":\"amf.flow\""), std::string::npos);
  EXPECT_NE(body.find("\"id\":" + std::to_string(add_trace)),
            std::string::npos);
  EXPECT_NE(body.find("\"id\":" + std::to_string(solve_trace)),
            std::string::npos);
  // The span args carry the same id, so logs, spans, and flows join.
  EXPECT_NE(body.find("\"trace\":" + std::to_string(solve_trace)),
            std::string::npos);

  // ?drain=1 hands the buffered events over exactly once.
  ASSERT_TRUE(
      http_get(server.http_port(), "/tracez?drain=1", &body, &status));
  EXPECT_NE(body.find("svc/request"), std::string::npos);
  ASSERT_TRUE(http_get(server.http_port(), "/tracez", &body, &status));
  EXPECT_EQ(body.find("svc/request"), std::string::npos);

  server.trigger_drain();
  server.wait_drained();
}

// Pulls "<name> <value>" out of an exposition page (first exact match).
double scrape_value(const std::string& page, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = page.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(page.c_str() + pos + needle.size());
}

TEST(SvcHttp, ScrapesStayMonotonicUnderLiveTraffic) {
  ServerConfig config;
  config.tcp_port = 0;
  config.http_port = 0;
  config.http.rate_per_s = 10000.0;  // scraping fast is the point here
  config.http.burst = 100.0;
  Server server(config);
  server.start();

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("busy", {100, 100});
    client.add_job("busy", {10, 10});
    while (!stop.load(std::memory_order_acquire)) client.solve("busy");
  });

  double last = -1.0;
  for (int i = 0; i < 25; ++i) {
    std::string body;
    int status = 0;
    ASSERT_TRUE(http_get(server.http_port(), "/metrics", &body, &status));
    ASSERT_EQ(status, 200);
    const double now = scrape_value(body, "amf_svc_requests_total_solve");
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0.0);
  stop.store(true, std::memory_order_release);
  traffic.join();
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcClientStats, CountsRetriesReconnectsAndBackoff) {
  const std::string sock_path = test::fresh_path("svc_stats.sock");

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.connect_timeout_ms = 500.0;
  retry.read_timeout_ms = 1000.0;
  retry.backoff_initial_ms = 1.0;
  retry.backoff_max_ms = 2.0;
  retry.jitter_seed = 7;

  auto server1 = std::make_unique<Server>([&] {
    ServerConfig config;
    config.unix_path = sock_path;
    return config;
  }());
  server1->start();
  Client client = Client::connect_unix(sock_path, retry);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.client_stats().calls, 1u);
  EXPECT_EQ(client.client_stats().retries, 0u);
  EXPECT_EQ(client.client_stats().reconnects, 0u);

  // Kill the server, bring up a fresh one on the same path: the next
  // call rides the retry loop through one reconnect.
  server1->trigger_drain();
  server1->wait_drained();
  server1.reset();
  std::remove(sock_path.c_str());
  Server server2([&] {
    ServerConfig config;
    config.unix_path = sock_path;
    return config;
  }());
  server2.start();

  EXPECT_TRUE(client.ping());
  const ClientStats& stats = client.client_stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GT(stats.backoff_ms, 0.0);

  // Server gone for good: the budget runs out, every failed attempt
  // counted.
  server2.trigger_drain();
  server2.wait_drained();
  std::remove(sock_path.c_str());
  const std::uint64_t retries_before = stats.retries;
  EXPECT_THROW(client.ping(), SvcError);
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.retries, retries_before + 2);
}

TEST(SvcClientStats, TraceIdsAreUniqueAndOptIn) {
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  // Off by default: no trace field, no id recorded.
  client.ping();
  EXPECT_EQ(client.last_trace(), 0u);
  client.set_tracing(true);
  client.ping();
  const std::uint64_t first = client.last_trace();
  client.ping();
  const std::uint64_t second = client.last_trace();
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, first);
  // Ids must survive the JSON double round-trip exactly.
  EXPECT_EQ(static_cast<std::uint64_t>(static_cast<double>(first)), first);
  server.trigger_drain();
  server.wait_drained();
}

}  // namespace
}  // namespace amf::svc
