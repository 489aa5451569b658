// http.hpp — a minimal embedded HTTP/1.1 listener for read-only
// telemetry endpoints (/metrics, /healthz, /tracez, /slo).
//
// Deliberately tiny: GET only, loopback only (it reuses listen_tcp,
// which binds 127.0.0.1), one request per connection (Connection:
// close), requests served sequentially on one listener thread.  That
// profile is exactly what a scrape loop or a curl needs, keeps the
// attack surface near zero, and makes the listener trivially TSan-clean
// — handlers run on one thread and read shared state only through
// thread-safe snapshots (Registry::snapshot, Tracer::events,
// SloTracker::report).
//
// A token bucket bounds the request rate: a runaway scraper gets 429s,
// not a denial of the allocator's CPU.  Reads carry a receive timeout so
// a peer that connects and stalls cannot wedge the listener.
#pragma once

#include <functional>
#include <string>
#include <thread>

#include "svc/net.hpp"

namespace amf::svc {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a GET's path + raw query string to a response.  Runs on the
/// listener thread; must not block indefinitely.
using HttpHandler =
    std::function<HttpResponse(const std::string& path,
                               const std::string& query)>;

struct HttpOptions {
  /// Token-bucket request rate limit across all endpoints (0 = off).
  double rate_per_s = 50.0;
  double burst = 20.0;
};

class HttpListener {
 public:
  /// `port` 0 picks an ephemeral port (see port() after start()).
  HttpListener(int port, HttpHandler handler, HttpOptions options = {});
  ~HttpListener();  ///< stop()s if still running.

  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Binds the loopback listener and spawns the serve thread.  Throws
  /// util::ContractError when the bind fails.
  void start();
  /// Stops accepting, joins the serve thread.  Idempotent.
  void stop();

  /// The bound port (valid after start()).
  int port() const { return bound_port_; }

 private:
  void serve_loop();
  void handle_connection(Socket sock);
  bool admit_locked_thread();  ///< token bucket (listener thread only)

  HttpHandler handler_;
  HttpOptions options_;
  int requested_port_ = 0;
  int bound_port_ = -1;
  Socket listener_;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
  double tokens_ = 0.0;
  double last_refill_s_ = 0.0;
};

/// Blocking HTTP GET against loopback `port` (tests, benches, smoke
/// scripts).  Returns false on connect/transport failure; otherwise
/// fills `*body` with the response body and `*status` (when non-null)
/// with the status code.
bool http_get(int port, const std::string& target, std::string* body,
              int* status = nullptr, double timeout_ms = 2000.0);

/// Parses an `--http` address: "port", ":port", or "host:port" where
/// host must be loopback ("127.0.0.1" or "localhost" — the listener
/// never binds wider).  Throws util::ContractError otherwise.
int parse_http_addr(const std::string& addr);

}  // namespace amf::svc
