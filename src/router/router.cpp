#include "router/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "svc/proto.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace amf::router {

using svc::ErrorCode;
using svc::Json;
using svc::SvcError;

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

std::string shard_label(const svc::Endpoint& ep) {
  if (!ep.unix_path.empty()) return "unix:" + ep.unix_path;
  return ep.host + ":" + std::to_string(ep.port);
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {
  AMF_REQUIRE(!config_.shards.empty(), "router needs at least one shard");
  int fds[2];
  AMF_REQUIRE(::pipe(fds) == 0, "router wake pipe creation failed");
  wake_read_ = fds[0];
  wake_write_ = fds[1];
}

Router::~Router() {
  trigger_drain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void Router::start() {
  svc::ListenOptions options;
  options.backlog = config_.backlog;
  if (!config_.unix_path.empty()) {
    listener_ = svc::listen_unix(config_.unix_path, options);
  } else {
    AMF_REQUIRE(config_.tcp_port >= 0,
                "router needs a unix path or a tcp port");
    listener_ = svc::listen_tcp(config_.tcp_port, &bound_port_, options);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  util::Logger::global()
      .info("router.started")
      .num("shards", static_cast<double>(config_.shards.size()));
}

void Router::trigger_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void Router::wait_drained() {
  std::unique_lock<std::mutex> lock(drained_mu_);
  drained_cv_.wait(lock, [this] { return drained_; });
}

std::size_t Router::shard_of(const std::string& session) {
  std::unique_lock<std::mutex> lock(route_mu_);
  route_cv_.wait(lock, [&] { return moving_.count(session) == 0; });
  const auto it = override_.find(session);
  if (it != override_.end()) return it->second;
  return fnv1a64(session) % config_.shards.size();
}

void Router::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    if (!svc::wait_readable(listener_.fd(), wake_read_)) break;
    svc::Socket sock = svc::accept_connection(listener_);
    if (!sock.valid()) {
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    // Same reap discipline as the serving accept loop: join announced
    // exits before each accept so conn_threads_ stays bounded by the
    // LIVE connection count.
    reap_finished_connections();
    auto conn = std::make_shared<ClientConn>();
    conn->sock = std::move(sock);
    conn->upstreams.resize(config_.shards.size());
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    std::thread thread([this, conn] { connection_loop(conn); });
    conn_threads_.emplace(thread.get_id(), std::move(thread));
  }

  // Drain: stop accepting, unblock every connection thread, join them.
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& weak : conns_)
      if (const auto conn = weak.lock()) conn->sock.shutdown_both();
  }
  std::map<std::thread::id, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
    finished_conn_threads_.clear();
  }
  for (auto& [id, thread] : threads)
    if (thread.joinable()) thread.join();
  {
    std::lock_guard<std::mutex> lock(drained_mu_);
    drained_ = true;
  }
  drained_cv_.notify_all();
}

void Router::reap_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::thread::id id : finished_conn_threads_) {
      const auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;
      finished.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conn_threads_.clear();
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::weak_ptr<ClientConn>& weak) {
                                  return weak.expired();
                                }),
                 conns_.end());
  }
  for (std::thread& thread : finished)
    if (thread.joinable()) thread.join();
}

void Router::connection_loop(std::shared_ptr<ClientConn> conn) {
  svc::LineReader reader(conn->sock.fd());
  std::string line;
  while (true) {
    const svc::LineReader::Status status = reader.read_line(&line);
    if (status == svc::LineReader::Status::kLine) {
      if (line.empty()) continue;
      handle_line(*conn, line);
      continue;
    }
    if (status == svc::LineReader::Status::kOversized)
      conn->sock.send_all(svc::error_line(
          0.0, ErrorCode::kBadRequest,
          "request line exceeds the protocol's size bound"));
    break;  // EOF / error / oversized all drop the connection
  }
  conn->sock.shutdown_both();
  std::lock_guard<std::mutex> lock(conns_mu_);
  finished_conn_threads_.push_back(std::this_thread::get_id());
}

void Router::handle_line(ClientConn& conn, const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    conn.sock.send_all(svc::error_line(0.0, ErrorCode::kBadRequest,
                                       std::string("bad JSON: ") + e.what()));
    return;
  }
  if (!req.is_object()) {
    conn.sock.send_all(svc::error_line(0.0, ErrorCode::kBadRequest,
                                       "request must be a JSON object"));
    return;
  }
  const double id = req.number_or("id", 0.0);
  const std::string op = req.string_or("op", "");
  const std::string session = req.string_or("session", "");
  try {
    if (op == "ping") {
      Json out = Json::object();
      out.set("pong", Json(true));
      conn.sock.send_all(svc::ok_line(id, out));
      return;
    }
    if (op == "stats") {
      handle_stats(conn, req, id);
      return;
    }
    if (op == "drain") {
      handle_drain(conn, req, id);
      return;
    }
    if (op == "move_session") {
      handle_move_session(conn, req, id);
      return;
    }
    // Everything else forwards by session — VERBATIM, so rids, trace
    // ids, and any field this router predates pass through untouched.
    if (session.empty())
      throw SvcError(ErrorCode::kBadRequest,
                     "op \"" + op +
                         "\" needs a \"session\" when addressed "
                         "through the router");
    std::size_t shard = shard_of(session);
    std::string response;
    for (int hop = 0; hop < 3; ++hop) {
      std::string cause;
      if (!forward(conn, shard, line, id, &response, &cause)) {
        shard_errors_.fetch_add(1, std::memory_order_relaxed);
        throw SvcError(ErrorCode::kShardUnavailable,
                       "shard " + std::to_string(shard) + " (" +
                           shard_label(config_.shards[shard]) +
                           "): " + cause);
      }
      // A request that resolved its shard BEFORE a move started can
      // reach the source while the evict drains the session (draining)
      // or after it (no_session). If the session meanwhile lives
      // elsewhere, chase it: re-resolve (which parks until the move
      // completes) and re-forward the same bytes — neither error admits
      // the request, and rid dedup keeps deltas exactly-once. Either
      // error from the session's CURRENT shard is genuine and returns
      // to the client.
      if (response.find("\"error\"") != std::string::npos) {
        const Json parsed = Json::parse(response);
        const Json* error = parsed.find("error");
        const std::string code =
            error != nullptr ? error->string_or("code", "") : "";
        if (code == "no_session" || code == "draining") {
          const std::size_t now = shard_of(session);
          if (now != shard) {
            shard = now;
            continue;
          }
        }
      }
      break;
    }
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    conn.sock.send_all(response);
  } catch (const SvcError& e) {
    conn.sock.send_all(svc::error_line(id, e.code(), e.what()));
  } catch (const std::exception& e) {
    conn.sock.send_all(svc::error_line(id, ErrorCode::kInternal, e.what()));
  }
}

bool Router::forward(ClientConn& conn, std::size_t shard,
                     const std::string& line, double id,
                     std::string* response, std::string* cause) {
  Upstream& up = conn.upstreams[shard];
  bool pooled = up.sock.valid();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!up.sock.valid()) {
      const svc::Endpoint& ep = config_.shards[shard];
      try {
        up.sock = !ep.unix_path.empty()
                      ? svc::connect_unix(ep.unix_path,
                                          config_.connect_timeout_ms)
                      : svc::connect_tcp(ep.host, ep.port,
                                         config_.connect_timeout_ms);
      } catch (const std::exception& e) {
        *cause = e.what();
        return false;
      }
      if (config_.read_timeout_ms > 0.0)
        svc::set_recv_timeout_ms(up.sock.fd(), config_.read_timeout_ms);
      up.reader = std::make_unique<svc::LineReader>(up.sock.fd());
      pooled = false;
    }
    std::string framed = line;
    framed += '\n';
    if (!up.sock.send_all(framed)) {
      up.sock.close();
      up.reader.reset();
      // A pooled connection that died between requests is routine (the
      // shard restarted); retry ONCE on a fresh connect. The request
      // never reached the shard, so the resend cannot double-apply.
      if (pooled) continue;
      *cause = "send to shard failed";
      return false;
    }
    while (true) {
      std::string resp;
      const svc::LineReader::Status status = up.reader->read_line(&resp);
      if (status != svc::LineReader::Status::kLine) {
        up.sock.close();
        up.reader.reset();
        // Past this point the request MAY have reached the shard, so no
        // transparent resend — the client's rid-based retry machinery
        // owns exactly-once, not the router.
        *cause = status == svc::LineReader::Status::kTimeout
                     ? "no response within the shard read timeout"
                     : "shard closed the connection before a response "
                       "arrived";
        return false;
      }
      Json parsed;
      try {
        parsed = Json::parse(resp);
      } catch (const std::exception&) {
        up.sock.close();
        up.reader.reset();
        *cause = "unparseable shard response";
        return false;
      }
      // Skip stale lines (a response to an earlier request this
      // connection abandoned); exactly one request is in flight, so a
      // matching id IS the answer — forwarded back byte-identically.
      if (parsed.number_or("id", -1.0) != id) continue;
      *response = resp;
      response->push_back('\n');
      return true;
    }
  }
  *cause = "send to shard failed";
  return false;
}

void Router::handle_stats(ClientConn& conn, const Json& req, double id) {
  Json shards = Json::array();
  Json sessions = Json::array();
  const std::string line = req.dump();
  long long reachable = 0;
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    Json entry = Json::object();
    entry.set("shard", Json(static_cast<long long>(i)));
    entry.set("endpoint", Json(shard_label(config_.shards[i])));
    std::string response;
    std::string cause;
    if (forward(conn, i, line, id, &response, &cause)) {
      const Json parsed = Json::parse(response);
      entry.set("ok", Json(parsed.bool_or("ok", false)));
      if (parsed.bool_or("ok", false)) ++reachable;
      const Json* shard_sessions = parsed.find("sessions");
      if (shard_sessions != nullptr && shard_sessions->is_array()) {
        for (const Json& info : shard_sessions->as_array()) {
          Json tagged = info;
          tagged.set("shard", Json(static_cast<long long>(i)));
          sessions.push_back(std::move(tagged));
        }
      }
      entry.set("stats", parsed);
    } else {
      shard_errors_.fetch_add(1, std::memory_order_relaxed);
      entry.set("ok", Json(false));
      entry.set("error", Json(cause));
    }
    shards.push_back(std::move(entry));
  }
  Json router = Json::object();
  router.set("shards",
             Json(static_cast<long long>(config_.shards.size())));
  router.set("reachable", Json(reachable));
  router.set("forwarded",
             Json(static_cast<double>(
                 forwarded_.load(std::memory_order_relaxed))));
  router.set("shard_errors",
             Json(static_cast<double>(
                 shard_errors_.load(std::memory_order_relaxed))));
  router.set("moves", Json(static_cast<double>(
                          moves_.load(std::memory_order_relaxed))));
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    router.set("overrides",
               Json(static_cast<long long>(override_.size())));
  }
  Json out = Json::object();
  out.set("router", std::move(router));
  out.set("sessions", std::move(sessions));
  out.set("shards", std::move(shards));
  conn.sock.send_all(svc::ok_line(id, out));
}

void Router::handle_drain(ClientConn& conn, const Json& req, double id) {
  // Cluster-wide shutdown: drain every shard (best-effort — an already
  // dead shard is already drained for this purpose), then the router.
  const std::string line = req.dump();
  Json shards = Json::array();
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    Json entry = Json::object();
    entry.set("shard", Json(static_cast<long long>(i)));
    std::string response;
    std::string cause;
    if (forward(conn, i, line, id, &response, &cause)) {
      const Json parsed = Json::parse(response);
      entry.set("ok", Json(parsed.bool_or("ok", false)));
    } else {
      entry.set("ok", Json(false));
      entry.set("error", Json(cause));
    }
    shards.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("draining", Json(true));
  out.set("shards", std::move(shards));
  conn.sock.send_all(svc::ok_line(id, out));
  trigger_drain();
}

svc::Client Router::admin_client(std::size_t shard) {
  svc::RetryPolicy retry;
  retry.connect_timeout_ms = config_.connect_timeout_ms;
  retry.read_timeout_ms = config_.read_timeout_ms;
  return svc::Client::connect_endpoints({config_.shards[shard]}, retry);
}

void Router::handle_move_session(ClientConn& conn, const Json& req,
                                 double id) {
  const std::string session = req.string_or("session", "");
  if (session.empty())
    throw SvcError(ErrorCode::kBadRequest,
                   "move_session needs a \"session\"");
  const Json* to = req.find("to");
  if (to == nullptr || !to->is_number())
    throw SvcError(ErrorCode::kBadRequest,
                   "move_session needs a numeric \"to\" shard index");
  const double raw = to->as_number();
  if (!(raw >= 0.0) || raw != std::floor(raw) ||
      raw >= static_cast<double>(config_.shards.size()))
    throw SvcError(ErrorCode::kBadRequest,
                   "\"to\" must be a shard index in [0, " +
                       std::to_string(config_.shards.size()) + ")");
  const std::size_t target = static_cast<std::size_t>(raw);

  std::size_t source = 0;
  {
    // Park forwarding for this session: shard_of() blocks while the
    // session is in moving_, so no request can race the handoff onto
    // the wrong shard. Concurrent moves of the SAME session serialize
    // on the same wait.
    std::unique_lock<std::mutex> lock(route_mu_);
    route_cv_.wait(lock, [&] { return moving_.count(session) == 0; });
    const auto it = override_.find(session);
    source = it != override_.end()
                 ? it->second
                 : fnv1a64(session) % config_.shards.size();
    if (source == target) {
      lock.unlock();
      Json out = Json::object();
      out.set("session", Json(session));
      out.set("from", Json(static_cast<long long>(source)));
      out.set("to", Json(static_cast<long long>(target)));
      out.set("moved", Json(false));
      conn.sock.send_all(svc::ok_line(id, out));
      return;
    }
    moving_.insert(session);
  }

  try {
    // Drain + evict on the source: the shard stops serving the session,
    // finishes queued work, and hands back its final snapshot, which
    // carries the rid dedup window (in-flight retries stay exactly-once).
    svc::Client source_client = admin_client(source);
    Json evicted = source_client.evict_session(session);
    const Json* snapshot = evicted.find("snapshot");
    if (snapshot == nullptr)
      throw SvcError(ErrorCode::kInternal,
                     "evict_session returned no snapshot");
    Json body = Json::object();
    body.set("snapshot", *snapshot);
    for (const char* key :
         {"policy", "batch_window_ms", "default_budget_ms"}) {
      const Json* value = req.find(key);
      if (value != nullptr) body.set(key, *value);
    }
    try {
      svc::Client target_client = admin_client(target);
      target_client.call(svc::Op::kCreateSession, session, body);
    } catch (...) {
      // The session left the source but never landed on the target:
      // put it back where it came from so it is not lost. If even that
      // fails the error below names the session for manual recovery.
      try {
        svc::Client back = admin_client(source);
        back.call(svc::Op::kCreateSession, session, body);
      } catch (const std::exception& e) {
        util::Logger::global()
            .error("router.move_restore_failed")
            .str("session", session)
            .str("error", e.what());
      }
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      override_[session] = target;
      moving_.erase(session);
    }
    route_cv_.notify_all();
    moves_.fetch_add(1, std::memory_order_relaxed);
    util::Logger::global()
        .info("router.session_moved")
        .str("session", session)
        .num("from", static_cast<double>(source))
        .num("to", static_cast<double>(target));
    Json out = Json::object();
    out.set("session", Json(session));
    out.set("from", Json(static_cast<long long>(source)));
    out.set("to", Json(static_cast<long long>(target)));
    out.set("moved", Json(true));
    const Json* seq = evicted.find("seq");
    if (seq != nullptr) out.set("seq", *seq);
    conn.sock.send_all(svc::ok_line(id, out));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      moving_.erase(session);
    }
    route_cv_.notify_all();
    throw;  // handle_line formats the typed error
  }
}

}  // namespace amf::router
