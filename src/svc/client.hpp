// client.hpp — blocking client for the amf_serve protocol.
//
// One Client wraps one connection and issues one request at a time:
// call() sends a line and blocks until the response with the matching id
// arrives (responses to other ids on the same connection are skipped —
// they belong to a different Client sharing the socket, which this
// blocking client never does, so in practice the next line is the
// answer). Typed error responses are rethrown as SvcError with the
// server's code, so callers branch on code() — e.g. kOverloaded for
// load-shedding backoff.
//
// ## Timeouts and retries (RetryPolicy)
//
// By default the client blocks forever and never retries (the seed
// behaviour: a dead connection is a util::ContractError). A RetryPolicy
// turns on:
//   * connect_timeout_ms — bounds each connect (SvcError(kTimeout));
//   * read_timeout_ms — SO_RCVTIMEO on the socket, so a silent server
//     yields SvcError(kTimeout) instead of a hang;
//   * max_attempts > 1 — transparent reconnect-and-retry for IDEMPOTENT
//     ops only, with capped exponential backoff and seeded jitter
//     between attempts. Deltas are made idempotent by attaching a
//     client-generated `rid` (the SAME rid on every attempt — the
//     server's dedup window turns a re-sent delta into a re-ACK, see
//     proto.hpp); solve/snapshot/stats/ping are naturally idempotent.
//     create_session and drain are NOT retried: a lost create ACK is
//     ambiguous (the retry would hit session_exists).
// When the budget runs out the client throws SvcError(kRetriesExhausted)
// naming the attempts and the last transport error; a timeout with no
// retries configured surfaces as SvcError(kTimeout).
//
// ## Endpoint failover (DESIGN.md §15)
//
// connect_endpoints() takes an ORDERED list of server addresses (primary
// first, standbys after). The client talks to one endpoint at a time and
// rotates to the next on: a connect failure, a dead/timed-out roundtrip,
// or a typed `not_primary` response (the endpoint is an unpromoted
// standby). Rotation only happens when a retry is allowed — the op is
// idempotent and attempts remain — so a non-retryable op surfaces its
// error instead of silently switching servers. Combined with rid dedup
// on the server, a delta retried across a failover is applied exactly
// once: the standby inherited the primary's dedup window through the
// replication stream, so the re-sent rid is answered with the original
// ACK. ClientStats::failovers counts rotations.
//
// The convenience wrappers mirror the protocol ops one-to-one and return
// the full response object (envelope included), so callers can read
// "seq", "job", "tier", "allocation" as documented in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "svc/net.hpp"
#include "svc/proto.hpp"

namespace amf::svc {

/// Counters over one Client's lifetime (single-threaded, like the
/// client itself).  Surfaced by `amf_client --verbose` so operators can
/// see the retry machinery work instead of inferring it from latency.
struct ClientStats {
  std::uint64_t calls = 0;       ///< call() invocations
  std::uint64_t retries = 0;     ///< re-attempts after a failed one
  std::uint64_t reconnects = 0;  ///< reconnects after the initial connect
  /// Connect and read timeouts observed, one per timed-out endpoint
  /// attempt (a reconnect sweep that times out on two endpoints counts
  /// two).
  std::uint64_t timeouts = 0;
  std::uint64_t failovers = 0;   ///< endpoint rotations (see header doc)
  double backoff_ms = 0.0;       ///< total time slept between attempts
};

/// One server address for the failover list: a non-empty unix_path
/// selects AF_UNIX, otherwise TCP host:port.
struct Endpoint {
  std::string unix_path;
  std::string host;
  int port = 0;
};

/// Parses "unix:PATH", "HOST:PORT", or a bare "PORT" (loopback TCP).
/// Throws util::ContractError naming the spec on anything else.
Endpoint parse_endpoint(const std::string& spec);

/// Client-side fault handling. The default is the maximally patient
/// configuration: block forever, never retry.
struct RetryPolicy {
  /// Total tries per call (1 = no retries). Only idempotent ops retry.
  int max_attempts = 1;
  /// Bound on each connect (0 = OS default blocking connect).
  double connect_timeout_ms = 0.0;
  /// SO_RCVTIMEO per read; a blocked response wait past this throws
  /// kTimeout (0 = block forever).
  double read_timeout_ms = 0.0;
  /// First backoff delay; doubles per attempt up to backoff_max_ms.
  double backoff_initial_ms = 10.0;
  double backoff_max_ms = 1000.0;
  /// Seed for the backoff jitter (0 = nondeterministic). Tests pin it.
  std::uint32_t jitter_seed = 0;
};

class Client {
 public:
  static Client connect_unix(const std::string& path,
                             RetryPolicy retry = RetryPolicy());
  static Client connect_tcp(const std::string& host, int port,
                            RetryPolicy retry = RetryPolicy());
  /// Ordered failover list: the client connects to the first reachable
  /// endpoint and rotates on failures (see the header doc). Throws when
  /// every endpoint refuses the initial connect.
  static Client connect_endpoints(std::vector<Endpoint> endpoints,
                                  RetryPolicy retry = RetryPolicy());

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Sends one request (v and id are filled in; op-specific parameters
  /// come from `body`, which may be a null Json for none) and blocks for
  /// the matching response. Throws SvcError on a typed error response
  /// (including client-side kTimeout / kRetriesExhausted) and
  /// util::ContractError when the connection dies with retries disabled.
  Json call(Op op, const std::string& session, Json body = Json());

  /// Raw round-trip for tests and the --raw client mode: sends the line
  /// verbatim (appending '\n' when missing) and returns the next response
  /// line from the server, unparsed. Never retries.
  std::string call_line(const std::string& line);

  // Protocol ops. All throw SvcError on typed errors.
  Json create_session(const std::string& name,
                      const std::vector<double>& capacities,
                      Json overrides = Json());
  /// Returns the job's stable handle.
  long long add_job(const std::string& session,
                    const std::vector<double>& demands,
                    const std::vector<double>& workloads = {},
                    double weight = 1.0);
  void finish_job(const std::string& session, long long job);
  void site_event(const std::string& session, int site, double factor);
  void set_capacity(const std::string& session, int site, double value);
  Json solve(const std::string& session, double budget_ms = 0.0,
             bool latest = false);
  Json snapshot(const std::string& session);
  Json stats(const std::string& format = "json");
  Json drain();
  bool ping();
  /// Promotes the CURRENT endpoint (a warm standby) to primary.
  /// Idempotent; returns {"role","epoch","promoted"}.
  Json promote();
  /// Admin: drains `session` on the server and removes it, returning
  /// {"session","seq","snapshot"} for re-creation elsewhere (shard
  /// handoff, DESIGN.md §16); the snapshot carries the session's config
  /// and its rid dedup window. NOT retried — a lost ACK is ambiguous.
  Json evict_session(const std::string& session);

  /// Enables wire trace propagation: every subsequent call() stamps a
  /// fresh numeric "trace" id (32-bit random prefix + counter, < 2^53
  /// so it survives the JSON number type exactly).  The server threads
  /// the id through its spans, so a /tracez dump joins client requests
  /// to server work.  Off by default (zero wire overhead).
  void set_tracing(bool on) { trace_on_ = on; }
  /// The trace id stamped on the most recent call (0 = none yet).
  std::uint64_t last_trace() const { return last_trace_; }

  /// Lifetime retry/reconnect counters (see ClientStats).
  const ClientStats& client_stats() const { return stats_; }

 private:
  enum class Outcome { kOk, kTimeout, kDead };

  Client(std::vector<Endpoint> endpoints, RetryPolicy retry);

  /// (Re)establishes the connection per the retry policy's timeouts,
  /// trying each endpoint at most once starting from the current one.
  /// Counts every timed-out endpoint attempt in stats_.timeouts and
  /// every rotation in stats_.failovers; *counted reports whether the
  /// failure that escaped was already counted there.
  void reconnect(bool* counted);
  /// Advances to the next endpoint (no-op with a single endpoint).
  void rotate_endpoint();
  /// One send + matched-response read on the current connection.
  Outcome roundtrip(const std::string& line, long long id, Json* out,
                    std::string* cause);
  /// Raises the typed error from an ok:false response, else returns it.
  Json unwrap(Json response);
  double backoff_delay_ms(int attempt);

  std::vector<Endpoint> endpoints_;
  std::size_t endpoint_idx_ = 0;  ///< the endpoint currently in use
  RetryPolicy retry_;
  Socket sock_;
  LineReader reader_;
  long long next_id_ = 0;
  std::string rid_prefix_;  ///< per-client uniqueness for generated rids
  long long next_rid_ = 0;
  std::mt19937 rng_;  ///< backoff jitter (seeded per policy)
  bool trace_on_ = false;
  std::uint64_t trace_prefix_ = 0;  ///< random high bits of trace ids
  std::uint64_t next_trace_ = 0;
  std::uint64_t last_trace_ = 0;
  bool connected_once_ = false;
  ClientStats stats_;
};

}  // namespace amf::svc
