// server.hpp — the amf_serve daemon core: listener, epoll connection
// reactors, session registry, graceful drain.
//
// The server listens on a Unix-domain socket or loopback TCP and accepts
// connections on a dedicated thread. Each accepted socket is made
// non-blocking and handed to one of a few epoll reactor threads, which
// frame request lines and dispatch them. Server ops (create_session /
// stats / drain / ping) are handled inline on the reactor; session ops
// are forwarded to the named Session, which runs as a task on the shared
// SvcExecutor and replies through the connection's write lock (responses
// from different sessions interleave safely on one connection, matched
// by request id).
//
// ## Drain
//
// trigger_drain() is async-signal-safe (it writes one byte to a self
// pipe); the SIGTERM handler and the `drain` op both call it. The thread
// in wait_drained() then performs the drain exactly once:
//   1. stop accepting (the accept loop watches the same pipe),
//   2. refuse new session work with typed `draining` errors,
//   3. drain every session (queued work is served, never dropped),
//   4. write the snapshot file (config.snapshot_path) — reloadable via
//      `amf_serve --restore`,
//   5. close connections, stop the reactors and the executor, and join
//      all threads.
//
// ## Durability (--journal)
//
// With `journal_dir` set, every session owns a write-ahead log at
// `<journal_dir>/<name>.wal` (the name is percent-escaped so a hostile
// session name cannot traverse the filesystem). create_session writes the
// session's birth record before acknowledging; deltas are journaled by
// the session before their ACKs (see session.hpp). After a crash,
// recover_from_journal() — called before start() — rebuilds every
// session from its log: the leading create/snapshot record seeds the
// state through session_from_birth() (every birth path is in
// birth.cpp), delta records replay through the live validate/apply path, and
// a torn tail or a rejected record truncates the log with a warning
// instead of refusing to start. A graceful drain compacts each log to a
// single snapshot record. When both --restore and --journal are given,
// the restore file wins for the sessions it names: their journals are
// reset to the restored state and recovery skips them with a warning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo.hpp"
#include "svc/eventloop.hpp"
#include "svc/executor.hpp"
#include "svc/http.hpp"
#include "svc/journal.hpp"
#include "svc/net.hpp"
#include "svc/repl.hpp"
#include "svc/session.hpp"

namespace amf::svc {

struct ServerConfig {
  /// Unix-domain socket path; non-empty selects AF_UNIX.
  std::string unix_path;
  /// Loopback TCP port (0 = ephemeral); used when unix_path is empty.
  int tcp_port = 0;
  /// Defaults for new sessions (a birth record may override policy,
  /// batch_window_ms and default_budget_ms; see SessionConfig).
  SessionConfig session;
  /// Where the graceful drain writes the sessions snapshot ("" = skip).
  std::string snapshot_path;
  /// Directory of per-session write-ahead journals ("" = no journaling).
  std::string journal_dir;
  /// When journaled appends reach the disk (see journal.hpp).
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// HTTP telemetry port (-1 = no HTTP listener; 0 = ephemeral, see
  /// http_port() after start()).  Serves GET /metrics, /healthz,
  /// /tracez, and /slo on loopback; read-only.
  int http_port = -1;
  /// Request rate limit for the HTTP listener (see http.hpp).
  HttpOptions http;
  /// Rolling SLO windows (gauges + /slo).  The ticker runs only while
  /// the HTTP listener is up; window width is slo.window_s seconds.
  obs::SloConfig slo;

  // --- scale-out serving (see DESIGN.md §16) ---
  /// Epoll reactor threads (0 = auto).
  std::size_t io_threads = 0;
  /// Shared session executor pool width (0 = auto: hardware concurrency).
  std::size_t executor_threads = 0;
  /// accept() backlog (0 = SOMAXCONN). The old hard-coded 64 caused
  /// spurious connect timeouts under thousands of concurrent connects.
  int backlog = 0;

  // --- high availability (see repl.hpp and DESIGN.md §15) ---
  /// Primary side: stream every journal record to a warm standby at
  /// "host:port" (or just "port", loopback). Requires journal_dir.
  std::string replicate_to;
  /// Withhold delta ACKs until the standby confirms the append (repl-ack
  /// mode). Default off: async replication, lag exported as gauges.
  bool repl_ack = false;
  /// Bound on each standby-confirmation wait in repl-ack mode.
  double repl_ack_timeout_ms = 5000.0;
  /// Standby side: listen for a primary's replication stream on this
  /// loopback TCP port (-1 = not a standby; 0 = ephemeral, see
  /// repl_port()). A standby serves ping/stats/promote and answers all
  /// session work with typed `not_primary` until promoted.
  int standby_port = -1;
};

/// What recover_from_journal() rebuilt, for operator logging.
struct RecoveryReport {
  int sessions = 0;       ///< sessions rebuilt from journals
  long long deltas = 0;   ///< delta records replayed
  std::vector<std::string> warnings;  ///< torn tails, rejected records, ...
};

class Server {
 public:
  explicit Server(ServerConfig config);
  /// Triggers and completes a drain if one has not run yet.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads a drain-snapshot file; each session keeps the policy, batch
  /// window, default budget and seq its entry carries (server defaults
  /// fill in what an older file lacks). Call before start(). Throws
  /// util::ContractError naming the file (and the offending session
  /// entry) on a missing, malformed, or truncated snapshot — the daemon
  /// exits nonzero instead of serving a silently partial restore. When
  /// journaling is on, each restored session gets a fresh journal seeded
  /// with a snapshot record of the restored state.
  void restore_from_file(const std::string& path);

  /// Rebuilds sessions from `journal_dir` (every `*.wal` file). Call
  /// before start(), after any restore_from_file(). Tolerant by design:
  /// torn tails are truncated, unreadable or rejected records stop that
  /// session's replay at the last good prefix, and every such event is a
  /// warning in the report, never a refusal to start.
  RecoveryReport recover_from_journal();

  /// Binds the listener and spawns the accept thread.
  void start();

  /// The bound TCP port (after start(); -1 on a unix-socket server).
  int tcp_port() const { return bound_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  /// The bound HTTP telemetry port (after start(); -1 when disabled).
  int http_port() const;

  /// The SLO tracker backing the gauges and /slo (nullptr when the HTTP
  /// listener is disabled).
  const obs::SloTracker* slo() const { return slo_.get(); }

  /// Requests a graceful drain. Async-signal-safe (signal handlers may
  /// call it); returns immediately.
  void trigger_drain();

  /// Promotes a standby to primary: fences the replication stream, bumps
  /// the epoch above everything seen, persists it, and starts serving
  /// session work. Idempotent (promoting a primary is a no-op). Returns
  /// {"role","epoch","promoted"} — the `promote` op's response body.
  Json promote();

  /// Async-signal-safe promotion request (the SIGUSR1 handler calls it);
  /// a watcher thread performs the actual promote().
  void trigger_promote();

  bool is_standby() const {
    return standby_.load(std::memory_order_acquire);
  }
  long long epoch() const;

  /// The bound replication-listener port (after start(); -1 when not a
  /// standby).
  int repl_port() const { return repl_bound_port_; }

  /// The replication sender (nullptr unless replicate_to is set).
  const ReplSender* repl_sender() const { return repl_sender_.get(); }

  /// Blocks until a drain is triggered, then performs it (first caller
  /// does the work; later callers wait for completion).
  void wait_drained();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  /// One client connection: a non-blocking socket on a reactor (see
  /// server.cpp). Responders hold shared_ptrs, so a Conn outlives its
  /// socket teardown and a late write() is a clean false, never a
  /// use-after-free.
  struct Conn;

  void accept_loop();
  void adopt_connection(Socket sock);
  void handle_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// Throws the typed error for session work this server cannot take:
  /// draining, standby, or no "session" name in the request.
  void require_session_work(const Request& req) const;
  /// Births and publishes the session (from a create record, or a
  /// snapshot record when the request carries one); returns the reply.
  Json handle_create_session(const Request& req);
  void handle_evict_session(const Request& req,
                            const std::shared_ptr<Conn>& conn);
  void handle_stats(const Request& req, const std::shared_ptr<Conn>& conn);
  void perform_drain();
  void add_session(std::unique_ptr<Session> session);
  /// Routes one telemetry GET (listener thread).
  HttpResponse handle_http(const std::string& path,
                           const std::string& query);
  void slo_ticker_loop();
  /// `<journal_dir>/<percent-escaped name>.wal`.
  std::string journal_path(const std::string& session_name) const;
  /// Creates the session's journal (truncating any stale file), writes
  /// `birth_payload` as the leading record, and attaches it.
  void attach_fresh_journal(Session* session, const std::string& birth_payload);
  /// Standby receiver: one accepted replication connection at a time.
  void repl_accept_loop();
  void repl_serve_connection(Socket& sock);
  /// Applies one streamed journal record (standby side, under repl_mu_).
  /// Duplicates (resends after reconnect) are skipped and still acked.
  bool repl_apply_record(const std::string& session_name, const Json& record,
                         std::string* error);
  /// Blocks on the promote pipe; SIGUSR1 / trigger_promote() feed it.
  void promote_watcher_loop();
  void persist_epoch_locked();

  ServerConfig config_;
  Socket listener_;
  int bound_port_ = -1;
  int wake_read_ = -1;   ///< self-pipe: accept loop + wait_drained watch it
  int wake_write_ = -1;  ///< trigger_drain writes here (async-signal-safe)

  std::mutex sessions_mu_;
  /// Shared so a request handler's copy keeps its session alive through
  /// submit() while evict_session unpublishes and drains it.
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  std::mutex conns_mu_;
  std::vector<std::weak_ptr<Conn>> conns_;
  std::atomic<long long> open_conns_{0};

  /// The reactor set and the shared session executor. The executor is
  /// built in the constructor — restore/recovery create sessions before
  /// start() and those sessions already need config_.session.executor.
  std::unique_ptr<EventLoop> eventloop_;
  std::unique_ptr<SvcExecutor> executor_;

  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  bool started_ = false;

  // --- telemetry sidecar (HTTP listener + SLO ticker) ---
  std::unique_ptr<HttpListener> http_;
  std::unique_ptr<obs::SloTracker> slo_;
  std::thread slo_thread_;
  std::mutex slo_mu_;
  std::condition_variable slo_cv_;
  bool slo_stop_ = false;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool drain_done_ = false;
  bool drain_running_ = false;

  // --- replication / HA ---
  std::unique_ptr<ReplSender> repl_sender_;  ///< primary side
  Socket repl_listener_;                     ///< standby side
  int repl_bound_port_ = -1;
  std::thread repl_thread_;
  int repl_wake_read_ = -1;  ///< self-pipe: drain stops the repl accept loop
  int repl_wake_write_ = -1;
  std::mutex repl_conn_mu_;
  int repl_conn_fd_ = -1;  ///< live replication connection (drain shuts it)
  std::atomic<bool> standby_{false};
  /// Guards epoch_/peer_epoch_ and serializes record application against
  /// promotion: a streamed record is either fully applied before the
  /// promote or rejected by the bumped epoch, never half-raced.
  mutable std::mutex repl_mu_;
  long long epoch_ = 1;
  long long peer_epoch_ = 0;  ///< highest epoch seen from a peer
  int promote_read_ = -1;  ///< promote self-pipe (SIGUSR1-safe)
  int promote_write_ = -1;
  std::thread promote_thread_;
};

}  // namespace amf::svc
