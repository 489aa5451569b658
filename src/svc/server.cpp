#include "svc/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace amf::svc {

namespace {

/// Percent-escapes a session name into a safe filename component:
/// anything outside [A-Za-z0-9._-] (and '%' itself) becomes %XX, so
/// "../x" cannot traverse out of the journal directory and the mapping
/// is injective (two sessions never share a log file).
std::string escape_session_file(const std::string& name) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    const bool safe = (u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
                      (u >= '0' && u <= '9') || u == '.' || u == '_' ||
                      u == '-';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 0xf]);
    }
  }
  return out;
}

/// Parses a replication target: "host:port" or a bare loopback "port".
void parse_repl_target(const std::string& spec, std::string* host,
                       int* port) {
  const std::size_t colon = spec.rfind(':');
  const std::string host_part =
      colon == std::string::npos ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_part =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  try {
    *port = std::stoi(port_part);
  } catch (const std::exception&) {
    *port = 0;
  }
  AMF_REQUIRE(*port > 0 && *port <= 65535,
              "replicate_to \"" + spec + "\" needs host:port or port");
  *host = host_part.empty() ? "127.0.0.1" : host_part;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  std::size_t threads = config_.executor_threads;
  if (threads == 0)
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  executor_ = std::make_unique<SvcExecutor>(threads);
  config_.session.executor = executor_.get();
  int fds[2];
  AMF_REQUIRE(::pipe(fds) == 0, "self-pipe creation failed");
  wake_read_ = fds[0];
  wake_write_ = fds[1];
  AMF_REQUIRE(::pipe(fds) == 0, "repl self-pipe creation failed");
  repl_wake_read_ = fds[0];
  repl_wake_write_ = fds[1];
  AMF_REQUIRE(::pipe(fds) == 0, "promote self-pipe creation failed");
  promote_read_ = fds[0];
  promote_write_ = fds[1];
  // Epoch: persisted across restarts alongside the journals. A fresh
  // primary starts at 1; a fresh standby at 0 (it adopts the primary's
  // epoch from the stream handshake and exceeds it on promotion).
  epoch_ =
      config_.journal_dir.empty() ? 0 : read_epoch_file(config_.journal_dir);
  if (config_.standby_port < 0 && epoch_ == 0) epoch_ = 1;
}

Server::~Server() {
  trigger_drain();
  wait_drained();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  if (repl_wake_read_ >= 0) ::close(repl_wake_read_);
  if (repl_wake_write_ >= 0) ::close(repl_wake_write_);
  if (promote_read_ >= 0) ::close(promote_read_);
  if (promote_write_ >= 0) ::close(promote_write_);
}

/// A client connection: a non-blocking socket owned by one reactor.
/// Reads happen only on that reactor thread (inbuf needs no lock);
/// writes come from any thread (reactors, executor threads) under
/// write_mu — a write that cannot complete immediately buffers the
/// remainder and arms EPOLLOUT, which the reactor drains. Protocol
/// framing (kMaxLineBytes bound, '\r' strip, empty-line skip) matches
/// LineReader byte for byte.
struct Server::Conn : std::enable_shared_from_this<Server::Conn> {
  /// Cap on buffered unsent response bytes: a reader slower than its own
  /// solve stream eventually loses the connection instead of growing the
  /// server's memory without bound.
  static constexpr std::size_t kMaxWriteBufferBytes = 8u << 20;

  Server* server = nullptr;
  Socket sock;
  std::size_t reactor = 0;

  std::mutex write_mu;
  std::string outbuf;
  bool want_write = false;
  bool dead = false;    ///< no further writes (peer gone or over cap)
  bool closed = false;  ///< connection-accounting done (gauge decrement)

  std::string inbuf;  ///< reactor thread only

  /// Serialized full-line write; false once the connection is dead.
  bool write(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead) return false;
    if (outbuf.empty()) {
      std::size_t sent = 0;
      while (sent < line.size()) {
        const ssize_t n =
            ::send(sock.fd(), line.data() + sent, line.size() - sent,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;
        return false;
      }
      if (sent == line.size()) return true;
      outbuf.assign(line, sent, std::string::npos);
    } else {
      if (outbuf.size() + line.size() > kMaxWriteBufferBytes) {
        dead = true;
        sock.shutdown_both();  // reactor sees EOF and finishes teardown
        return false;
      }
      outbuf.append(line);
    }
    if (!want_write) {
      want_write = true;
      server->eventloop_->set_want_write(reactor, sock.fd(), true);
    }
    return true;
  }

  /// Drain-time force-close: surfaces EOF to the reactor. Idempotent.
  void close_now() {
    {
      std::lock_guard<std::mutex> lock(write_mu);
      dead = true;
    }
    sock.shutdown_both();
    finish_accounting();
  }

  /// Reactor-thread event dispatch.
  void on_events(std::uint32_t events) {
    if ((events & EPOLLOUT) != 0) flush();
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      disconnect();
      return;
    }
    if ((events & (EPOLLIN | EPOLLRDHUP)) == 0) return;
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        inbuf.append(buf, static_cast<std::size_t>(n));
        if (!drain_lines()) return;  // oversized line: connection dropped
        continue;
      }
      if (n == 0) {
        disconnect();
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      disconnect();
      return;
    }
  }

 private:
  /// Dispatches every complete line in inbuf; false when framing is lost
  /// (a line exceeded kMaxLineBytes) and the connection was dropped.
  bool drain_lines() {
    std::size_t pos;
    while ((pos = inbuf.find('\n')) != std::string::npos) {
      std::string line = inbuf.substr(0, pos);
      inbuf.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      server->handle_line(shared_from_this(), line);
    }
    if (inbuf.size() > kMaxLineBytes) {
      write(error_line(0.0, ErrorCode::kBadRequest,
                       "request line exceeds the protocol limit"));
      disconnect();
      return false;
    }
    return true;
  }

  void flush() {
    std::lock_guard<std::mutex> lock(write_mu);
    while (!outbuf.empty() && !dead) {
      const ssize_t n = ::send(sock.fd(), outbuf.data(), outbuf.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      dead = true;
    }
    if (want_write) {
      want_write = false;
      server->eventloop_->set_want_write(reactor, sock.fd(), false);
    }
  }

  /// Reactor-side teardown: deregister, half-close, account. The fd
  /// itself closes with the last shared_ptr (late responders still hold
  /// some), so its number cannot be reused under a stale registration.
  void disconnect() {
    server->eventloop_->remove(reactor, sock.fd());
    {
      std::lock_guard<std::mutex> lock(write_mu);
      dead = true;
    }
    sock.shutdown_both();
    finish_accounting();
  }

  void finish_accounting() {
    {
      std::lock_guard<std::mutex> lock(write_mu);
      if (closed) return;
      closed = true;
    }
    const long long open =
        server->open_conns_.fetch_sub(1, std::memory_order_relaxed) - 1;
    SvcMetrics::get().open_connections.set(static_cast<double>(open));
  }
};

std::string Server::journal_path(const std::string& session_name) const {
  return config_.journal_dir + "/" + escape_session_file(session_name) +
         ".wal";
}

void Server::start() {
  AMF_REQUIRE(!started_, "server already started");
  if (config_.standby_port >= 0) {
    AMF_REQUIRE(config_.replicate_to.empty(),
                "a server cannot be standby and replicating primary at once");
    standby_.store(true, std::memory_order_release);
    repl_listener_ = listen_tcp(config_.standby_port, &repl_bound_port_);
  }
  ListenOptions listen_options;
  listen_options.backlog = config_.backlog;
  if (!config_.unix_path.empty()) {
    listener_ = listen_unix(config_.unix_path, listen_options);
  } else {
    listener_ = listen_tcp(config_.tcp_port, &bound_port_, listen_options);
  }
  std::size_t threads = config_.io_threads;
  if (threads == 0)
    threads = std::min<std::size_t>(
        4, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  eventloop_ = std::make_unique<EventLoop>(threads);
  started_ = true;

  if (!config_.replicate_to.empty()) {
    AMF_REQUIRE(!config_.journal_dir.empty(),
                "replicate_to requires journal_dir: replication streams "
                "journal records");
    ReplSenderConfig repl;
    parse_repl_target(config_.replicate_to, &repl.host, &repl.port);
    repl.ack = config_.repl_ack;
    repl.ack_timeout_ms = config_.repl_ack_timeout_ms;
    repl_sender_ = std::make_unique<ReplSender>(repl, epoch_);
    // Seed the stream: sessions that predate the sender (restored or
    // recovered before start()) reach the standby as snapshot births,
    // offered before any live delta can be admitted. They are quiescent
    // here — no session task has touched solver state yet.
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [name, session] : sessions_) {
        std::uint64_t index = 0;
        (void)repl_sender_->offer(
            name, session->snapshot_record_payload_locked_state(), &index);
        session->attach_replication(repl_sender_.get());
      }
    }
    repl_sender_->start();
  }
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    if (!is_standby() && !config_.journal_dir.empty())
      persist_epoch_locked();
    SvcMetrics::get().role.set(is_standby() ? 0.0 : 1.0);
    SvcMetrics::get().epoch.set(static_cast<double>(epoch_));
  }
  // Serve only now: request handlers read repl_sender_, and the seeding
  // above must precede any live delta.
  accept_thread_ = std::thread([this] { accept_loop(); });
  promote_thread_ = std::thread([this] { promote_watcher_loop(); });
  if (config_.standby_port >= 0)
    repl_thread_ = std::thread([this] { repl_accept_loop(); });

  // Telemetry sidecar: the HTTP listener and the SLO ticker come up
  // together (the ticker exists to feed /metrics and /slo), and the span
  // tracer turns on so /tracez has request flows to show.
  if (config_.http_port >= 0) {
    obs::Tracer::global().set_enabled(true);
    slo_ = std::make_unique<obs::SloTracker>(&obs::Registry::global(),
                                             config_.slo);
    http_ = std::make_unique<HttpListener>(
        config_.http_port,
        [this](const std::string& path, const std::string& query) {
          return handle_http(path, query);
        },
        config_.http);
    http_->start();
    slo_thread_ = std::thread([this] { slo_ticker_loop(); });
  }

  util::Logger::global()
      .info("svc.server_start")
      .str("listen", config_.unix_path.empty()
                         ? "tcp:" + std::to_string(bound_port_)
                         : "unix:" + config_.unix_path)
      .num("http_port", http_ != nullptr ? http_->port() : -1)
      .str("policy", config_.session.policy)
      .num("batch_window_ms", config_.session.batch_window_ms)
      .num("max_queue_depth", config_.session.max_queue_depth)
      .boolean("journal", !config_.journal_dir.empty())
      .str("role", is_standby() ? "standby" : "primary")
      .num("epoch", epoch())
      .num("repl_port", repl_bound_port_)
      .str("replicate_to", config_.replicate_to);
}

int Server::http_port() const {
  return http_ != nullptr ? http_->port() : -1;
}

void Server::slo_ticker_loop() {
  const double period_s = std::max(config_.slo.window_s, 0.01);
  std::unique_lock<std::mutex> lock(slo_mu_);
  while (!slo_stop_) {
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(period_s));
    if (slo_cv_.wait_until(lock, wake, [this] { return slo_stop_; }))
      return;
    lock.unlock();
    slo_->tick();
    lock.lock();
  }
}

HttpResponse Server::handle_http(const std::string& path,
                                 const std::string& query) {
  HttpResponse resp;
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = obs::to_prometheus_text(obs::Registry::global().snapshot());
  } else if (path == "/healthz") {
    const bool draining = draining_.load(std::memory_order_acquire);
    std::size_t sessions = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions = sessions_.size();
    }
    resp.status = draining ? 503 : 200;
    resp.content_type = "application/json";
    // A warm standby is healthy (200) but says so: load balancers route
    // on "role", operators read "epoch" before promoting.
    Json body = Json::object();
    body.set("status", Json(std::string(
                           draining ? "draining"
                                    : (is_standby() ? "standby" : "ok"))));
    body.set("sessions", Json(static_cast<long long>(sessions)));
    body.set("role",
             Json(std::string(is_standby() ? "standby" : "primary")));
    body.set("epoch", Json(epoch()));
    if (repl_sender_ != nullptr) {
      Json repl = Json::object();
      repl.set("connected", Json(repl_sender_->connected()));
      repl.set("fenced", Json(repl_sender_->fenced()));
      repl.set("broken", Json(repl_sender_->broken()));
      repl.set("lag_records",
               Json(static_cast<long long>(repl_sender_->offered() -
                                           repl_sender_->acked_index())));
      body.set("repl", std::move(repl));
    }
    resp.body = body.dump() + "\n";
  } else if (path == "/tracez") {
    resp.content_type = "application/json";
    auto& tracer = obs::Tracer::global();
    const auto events =
        query == "drain=1" ? tracer.drain() : tracer.events();
    resp.body = obs::to_chrome_trace(events);
  } else if (path == "/slo") {
    resp.content_type = "application/json";
    resp.body = slo_->to_json();
  } else {
    resp.status = 404;
    resp.body = "unknown endpoint (try /metrics, /healthz, /tracez, "
                "/slo)\n";
  }
  // http_get (tests, smoke) reads line-framed bodies; every endpoint
  // already ends with '\n', keep it that way for anything added later.
  if (!resp.body.empty() && resp.body.back() != '\n')
    resp.body.push_back('\n');
  return resp;
}

void Server::trigger_drain() {
  // Async-signal-safe: one write() to the self pipe, nothing else.
  const char byte = 'd';
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void Server::accept_loop() {
  while (wait_readable(listener_.fd(), wake_read_)) {
    Socket conn_sock = accept_connection(listener_);
    if (!conn_sock.valid()) break;
    adopt_connection(std::move(conn_sock));
  }
}

void Server::adopt_connection(Socket sock) {
  auto conn = std::make_shared<Conn>();
  conn->server = this;
  conn->sock = std::move(sock);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (draining_.load(std::memory_order_acquire)) return;
    // Prune dead registrations before the vector grows, so a long-lived
    // server does not keep one entry per historical connection.
    if (conns_.size() == conns_.capacity())
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::weak_ptr<Conn>& weak) {
                                    return weak.expired();
                                  }),
                   conns_.end());
    conns_.push_back(conn);
  }
  const long long open =
      open_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
  SvcMetrics::get().open_connections.set(static_cast<double>(open));
  set_nonblocking(conn->sock.fd(), true);
  conn->reactor = eventloop_->pick();
  eventloop_->add(conn->reactor, conn->sock.fd(),
                  [conn](std::uint32_t events) { conn->on_events(events); });
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  using Clock = std::chrono::steady_clock;
  auto& metrics = SvcMetrics::get();
  Request req;
  const auto parse_start = Clock::now();
  try {
    req = parse_request(line);
  } catch (const SvcError& e) {
    conn->write(error_line(0.0, e.code(), e.what()));
    return;
  }
  metrics.stage_parse_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - parse_start)
          .count());
  metrics.request_counter(req.op).add();

  // Wire-propagated trace id (optional "trace" field, protocol v:1
  // addition): this span opens the request's flow; the enqueue, batch,
  // allocator, journal, and reply spans link to it by the same id.
  const std::uint64_t trace = trace_of(req);
  AMF_SPAN_FLOW_START("svc/request", trace);

  try {
    switch (req.op) {
      case Op::kPing: {
        Json out = Json::object();
        out.set("pong", Json(true));
        conn->write(ok_line(req.id, out));
        return;
      }
      case Op::kCreateSession:
        conn->write(ok_line(req.id, handle_create_session(req)));
        return;
      case Op::kStats:
        handle_stats(req, conn);
        return;
      case Op::kDrain: {
        Json out = Json::object();
        out.set("draining", Json(true));
        conn->write(ok_line(req.id, out));
        trigger_drain();
        return;
      }
      case Op::kPromote: {
        conn->write(ok_line(req.id, promote()));
        return;
      }
      case Op::kEvictSession:
        handle_evict_session(req, conn);
        return;
      default:
        break;  // session ops
    }

    require_session_work(req);
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(req.session);
      if (it == sessions_.end())
        throw SvcError(ErrorCode::kNoSession,
                       "no session \"" + req.session + "\"");
      session = it->second;
    }
    // The copy keeps the session alive through submit() even if a
    // concurrent evict_session unpublishes and drains it (submit then
    // answers `draining`). The responder closes the request's flow: the
    // reply span runs on whichever thread answers (the reactor for
    // ACKs/sheds, an executor thread for solves) and carries the wire
    // trace id either way.
    session->submit(req, [conn, trace](std::string response) {
      const auto reply_start = Clock::now();
      {
        AMF_SPAN_FLOW_END("svc/reply", trace);
        conn->write(response);
      }
      SvcMetrics::get().stage_reply_ms.observe(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    reply_start)
              .count());
    });
  } catch (const SvcError& e) {
    conn->write(error_line(req.id, e.code(), e.what()));
  } catch (const std::exception& e) {
    conn->write(error_line(req.id, ErrorCode::kInternal, e.what()));
  }
}

void Server::require_session_work(const Request& req) const {
  if (draining_.load(std::memory_order_acquire))
    throw SvcError(ErrorCode::kDraining, "server is draining");
  if (is_standby())
    throw SvcError(ErrorCode::kNotPrimary,
                   "standby (epoch " + std::to_string(epoch()) +
                       ") is not serving session work; promote it or "
                       "address the primary");
  if (req.session.empty())
    throw SvcError(ErrorCode::kBadRequest,
                   std::string("op ") + to_string(req.op) +
                       " needs a \"session\"");
}

void Server::handle_evict_session(const Request& req,
                                  const std::shared_ptr<Conn>& conn) {
  require_session_work(req);
  // Unpublish first: requests arriving after this point get no_session
  // (the router retries them on the target shard), while everything
  // already admitted is served by the drain below.
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(req.session);
    if (it == sessions_.end())
      throw SvcError(ErrorCode::kNoSession,
                     "no session \"" + req.session + "\"");
    session = std::move(it->second);
    sessions_.erase(it);
  }
  session->drain();
  Json out = Json::object();
  out.set("session", Json(req.session));
  out.set("seq", Json(session->enqueued_seq()));
  out.set("snapshot", session->carried_json_after_drain());
  session.reset();
  // The journal must go with the session: a leftover .wal would resurrect
  // it HERE on restart while the target shard also owns it (split brain).
  if (!config_.journal_dir.empty())
    ::unlink(journal_path(req.session).c_str());
  util::Logger::global()
      .info("svc.session_evicted")
      .str("session", req.session);
  conn->write(ok_line(req.id, out));
}

void Server::handle_stats(const Request& req,
                          const std::shared_ptr<Conn>& conn) {
  const std::string format = req.body.string_or("format", "json");
  Json out = Json::object();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  if (format == "prometheus") {
    out.set("content_type", Json(std::string("text/plain; version=0.0.4")));
    out.set("text", Json(obs::to_prometheus_text(snap)));
  } else if (format == "json") {
    // Embed the exporter's JSON verbatim (it is already valid JSON).
    out.set("metrics", Json::parse(obs::to_metrics_json(snap)));
  } else {
    throw SvcError(ErrorCode::kBadRequest,
                   "stats format must be json or prometheus");
  }
  Json sessions = Json::array();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [name, session] : sessions_)
      sessions.push_back(session->info_json());
  }
  out.set("sessions", std::move(sessions));
  out.set("draining", Json(draining_.load(std::memory_order_acquire)));
  out.set("role", Json(std::string(is_standby() ? "standby" : "primary")));
  out.set("epoch", Json(epoch()));
  conn->write(ok_line(req.id, out));
}

long long Server::epoch() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return epoch_;
}

void Server::persist_epoch_locked() {
  if (!config_.journal_dir.empty())
    write_epoch_file(config_.journal_dir, epoch_);
}

void Server::trigger_promote() {
  // Async-signal-safe: one write() to the promote pipe, nothing else.
  const char byte = 'p';
  [[maybe_unused]] ssize_t n = ::write(promote_write_, &byte, 1);
}

void Server::promote_watcher_loop() {
  // Dedicated pipe + thread: the accept loop treats its own wake pipe as
  // the drain signal, so promotion needs a separate wake channel. The
  // drain closes the write end, which ends this loop with read() == 0.
  char byte = 0;
  while (true) {
    const ssize_t n = ::read(promote_read_, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    if (byte == 'q') return;  // drain teardown
    promote();
  }
}

Json Server::promote() {
  std::lock_guard<std::mutex> lock(repl_mu_);
  const bool was_standby = standby_.load(std::memory_order_acquire);
  if (was_standby) {
    // Exceed every epoch seen anywhere, persist BEFORE serving: a
    // deposed primary restarting later must find itself outranked even
    // if this process crashes right after the first post-promotion ACK.
    epoch_ = std::max(epoch_, peer_epoch_) + 1;
    persist_epoch_locked();
    standby_.store(false, std::memory_order_release);
    SvcMetrics::get().role.set(1.0);
    SvcMetrics::get().epoch.set(static_cast<double>(epoch_));
    util::Logger::global()
        .info("svc.promoted")
        .num("epoch", epoch_)
        .num("peer_epoch", peer_epoch_);
  }
  Json out = Json::object();
  out.set("role", Json(std::string("primary")));
  out.set("epoch", Json(epoch_));
  out.set("promoted", Json(was_standby));
  return out;
}

void Server::repl_accept_loop() {
  while (wait_readable(repl_listener_.fd(), repl_wake_read_)) {
    Socket sock = accept_connection(repl_listener_);
    if (!sock.valid()) break;
    {
      std::lock_guard<std::mutex> lock(repl_conn_mu_);
      repl_conn_fd_ = sock.fd();
    }
    repl_serve_connection(sock);
    {
      std::lock_guard<std::mutex> lock(repl_conn_mu_);
      repl_conn_fd_ = -1;
    }
  }
}

void Server::repl_serve_connection(Socket& sock) {
  LineReader reader(sock.fd());
  std::string line;
  const auto reply = [&sock](const Json& msg) {
    return sock.send_all(msg.dump() + "\n");
  };
  while (reader.read_line(&line) == LineReader::Status::kLine) {
    Json msg;
    try {
      msg = Json::parse(line);
    } catch (const std::exception&) {
      break;  // framing lost; the sender reconnects and resends unacked
    }
    const std::string type = msg.string_or("t", "");
    long long msg_epoch = 0;
    long long msg_index = 0;
    if (!stream_counter(msg, "epoch", &msg_epoch) ||
        !stream_counter(msg, "i", &msg_index))
      break;  // no sender writes such a number: drop the connection
    if (type == "hello") {
      Json out = Json::object();
      std::lock_guard<std::mutex> lock(repl_mu_);
      if (!standby_.load(std::memory_order_acquire) || msg_epoch < epoch_) {
        out.set("t", Json(std::string("fenced")));
        out.set("epoch", Json(epoch_));
        SvcMetrics::get().repl_fenced.add();
        util::Logger::global()
            .warn("svc.repl_fenced_peer")
            .num("peer_epoch", msg_epoch)
            .num("epoch", epoch_);
        reply(out);
        break;
      }
      peer_epoch_ = std::max(peer_epoch_, msg_epoch);
      if (msg_epoch > epoch_) {
        epoch_ = msg_epoch;  // adopt the primary's epoch
        persist_epoch_locked();
        SvcMetrics::get().epoch.set(static_cast<double>(epoch_));
      }
      out.set("t", Json(std::string("ok")));
      out.set("epoch", Json(epoch_));
      if (!reply(out)) break;
      util::Logger::global().info("svc.repl_attached").num("epoch", epoch_);
      continue;
    }
    if (type == "rec") {
      const auto index = static_cast<std::uint64_t>(msg_index);
      const std::string session = msg.string_or("session", "");
      const Json* record = msg.find("record");
      Json out = Json::object();
      // One lock spans the epoch check and the apply: a record is either
      // fully applied before a racing promote() bumps the epoch, or
      // fenced after — never half-applied under the new epoch.
      std::lock_guard<std::mutex> lock(repl_mu_);
      if (!standby_.load(std::memory_order_acquire) || msg_epoch < epoch_) {
        out.set("t", Json(std::string("fenced")));
        out.set("epoch", Json(epoch_));
        SvcMetrics::get().repl_fenced.add();
        if (!reply(out)) break;
        continue;  // keep fencing; the deposed sender stops itself
      }
      peer_epoch_ = std::max(peer_epoch_, msg_epoch);
      std::string error;
      if (record == nullptr || session.empty())
        error = "malformed replication record";
      else
        repl_apply_record(session, *record, &error);
      if (!error.empty()) {
        out.set("t", Json(std::string("err")));
        out.set("i", Json(static_cast<double>(index)));
        out.set("message", Json(error));
        util::Logger::global()
            .error("svc.repl_reject")
            .str("session", session)
            .str("message", error);
        if (!reply(out)) break;
        continue;  // sender goes terminal (broken); we stay a standby
      }
      SvcMetrics::get().repl_applied.add();
      out.set("t", Json(std::string("ack")));
      out.set("i", Json(static_cast<double>(index)));
      if (!reply(out)) break;
      continue;
    }
    break;  // unknown message type: drop the connection
  }
  sock.shutdown_both();
}

void Server::wait_drained() {
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    if (drain_done_) return;
    if (drain_running_) {
      drain_cv_.wait(lock, [this] { return drain_done_; });
      return;
    }
    drain_running_ = true;
  }

  // Block until a trigger arrives (the pipe may already have bytes).
  char buf[16];
  while (true) {
    const ssize_t n = ::read(wake_read_, buf, sizeof buf);
    if (n > 0) break;
    if (n < 0 && errno == EINTR) continue;
    break;  // pipe closed — treat as a trigger
  }
  perform_drain();

  std::lock_guard<std::mutex> lock(drain_mu_);
  drain_done_ = true;
  drain_cv_.notify_all();
}

void Server::perform_drain() {
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting. The accept loop watches the same pipe; closing the
  // listener also unblocks a racing accept().
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());

  // 1b. Stop the standby receiver (wake its accept loop, cut the live
  // stream connection) and the promote watcher.
  if (repl_thread_.joinable()) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = ::write(repl_wake_write_, &byte, 1);
    repl_listener_.shutdown_both();
    {
      std::lock_guard<std::mutex> lock(repl_conn_mu_);
      if (repl_conn_fd_ >= 0) ::shutdown(repl_conn_fd_, SHUT_RDWR);
    }
    repl_thread_.join();
    repl_listener_.close();
  }
  if (promote_thread_.joinable()) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = ::write(promote_write_, &byte, 1);
    promote_thread_.join();
  }

  // 2. Serve all queued work. Sessions reply through still-open
  // connections; new submissions get typed `draining` errors. Once a
  // session is drained its journal covers exactly its final state, so
  // compact it to a single snapshot record (restarts replay nothing).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [name, session] : sessions_) {
      session->drain();
      if (session->has_journal()) session->compact_journal_after_drain();
    }
  }

  // 3. Persist the drained state.
  if (!config_.snapshot_path.empty()) {
    Json root = Json::object();
    root.set("v", Json(kProtocolVersion));
    Json sessions = Json::array();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [name, session] : sessions_)
        sessions.push_back(session->carried_json_after_drain());
    }
    root.set("sessions", std::move(sessions));
    obs::write_text_file(config_.snapshot_path, root.dump() + "\n");
  }

  // 4. Close connections and stop the reactors.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& weak : conns_)
      if (auto conn = weak.lock()) conn->close_now();
  }
  if (eventloop_ != nullptr) eventloop_->stop();

  // 5. Tear down sessions (queues are empty; executor tasks waited out),
  // then the executor they ran on, then the replication sender they
  // pointed at.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
  }
  executor_->stop();
  if (repl_sender_ != nullptr) repl_sender_->stop();

  // 6. Stop the telemetry sidecar last, so /healthz kept answering 503
  // (draining) for the whole drain window.
  if (slo_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(slo_mu_);
      slo_stop_ = true;
    }
    slo_cv_.notify_all();
    slo_thread_.join();
  }
  if (http_ != nullptr) http_->stop();

  util::Logger::global().info("svc.server_drained");
}

}  // namespace amf::svc
