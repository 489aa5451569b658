// proto.hpp — wire protocol of the allocation service.
//
// amf_serve speaks line-delimited JSON over a stream socket: every
// request and every response is exactly one '\n'-terminated JSON object.
// Framing is versioned — each request carries `"v": 1` and is rejected
// (typed `bad_request`) on any other version, so the format can evolve
// without ambiguous parses.
//
// Request:  {"v":1, "id":<number>, "op":"<op>", "session":"<name>", ...}
// Response: {"v":1, "id":<id>, "ok":true, ...result}
//       or  {"v":1, "id":<id>, "ok":false,
//            "error":{"code":"<code>", "message":"..."}}
//
// The `id` is an opaque client-chosen number echoed verbatim; responses
// to pipelined requests may arrive out of request order (deltas are
// acknowledged at admission, solves after the batch that serves them),
// so clients match on it. Ops, their parameters, and the session
// lifecycle are documented in DESIGN.md §11.
//
// Error codes are part of the contract: `overloaded` is the typed
// load-shedding response of admission control (bounded queue depth, queue
// age, or an expired request deadline) — a shed client always receives it
// instead of a stall or a dropped connection.
//
// ## Idempotent retries (`rid`)
//
// Delta requests may carry a client-generated `"rid"` string. The server
// keeps a bounded per-session window of recently admitted rids; a retry
// carrying a seen rid is NOT re-applied — it is re-ACKed with the
// original result (same `seq`, same `job` handle) plus `"dup": true`.
// This is what makes client-side reconnect-and-resend safe: a delta whose
// ACK was lost to a connection reset can be retried blindly without
// double-applying the mutation. Rids older than the window are evicted
// (re-use after eviction re-applies — clients must not recycle rids).
// Each delta record journals its rid, and every snapshot record (a
// compaction, a drain file entry, a moved session's birth) carries the
// whole window, so dedup survives a crash, a compaction and a restore.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "svc/json.hpp"

namespace amf::svc {

inline constexpr int kProtocolVersion = 1;

/// Hard cap on one request line, matching the trace-loader hardening
/// bound: a client that streams an unterminated line is disconnected
/// before the buffer grows past this.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Protocol operations.
enum class Op {
  kCreateSession,  ///< create a named session from a capacity vector
  kAddJob,         ///< delta: append a job; responds with its stable id
  kFinishJob,      ///< delta: remove a job by stable id
  kSiteEvent,      ///< delta: scale one site's usable capacity (factor of nominal)
  kSetCapacity,    ///< delta: set one site's nominal capacity absolutely
  kSolve,          ///< run (or join) an incremental re-solve
  kSnapshot,       ///< serialize session state (problem + last allocation)
  kStats,          ///< metric registry scrape (Prometheus text + JSON)
  kDrain,          ///< begin graceful server drain
  kPing,           ///< liveness no-op
  kPromote,        ///< promote a warm standby to primary (idempotent)
  kEvictSession,   ///< admin: drain one session and return its snapshot
                   ///< + dedup window, then remove it (shard handoff)
};

/// Parses an op name; throws SvcError(kUnknownOp) on anything else.
Op parse_op(std::string_view name);
const char* to_string(Op op);

/// Typed protocol failure, carried to the client in the error response.
enum class ErrorCode {
  kBadRequest,     ///< malformed JSON, bad version, missing/invalid field
  kUnknownOp,      ///< op name not in the protocol
  kNoSession,      ///< session name not found
  kSessionExists,  ///< create_session on an existing name
  kOverloaded,     ///< admission control shed this request (queue full /
                   ///< aged out / deadline expired before serving)
  kDraining,       ///< server is draining; no new work accepted
  kInternal,       ///< unexpected server-side failure
  kNotPrimary,     ///< a warm standby refused session work (promote it,
                   ///< or address the primary; see DESIGN.md §15)
  kShardUnavailable,  ///< the router could not reach the backend shard
                      ///< owning this session (retry rotates endpoints)
  // Client-side codes (never sent by the server; raised by svc::Client).
  kTimeout,           ///< connect/read deadline expired with no response
  kRetriesExhausted,  ///< reconnect-and-retry gave up (non-idempotent op,
                      ///< or the retry budget ran out)
};

const char* to_string(ErrorCode code);

/// Inverse of to_string(ErrorCode); unrecognized names map to kInternal
/// (the client-side catch-all for codes from a newer server).
ErrorCode parse_error_code(std::string_view name);

/// Exception used server-side to unwind a request into a typed error
/// response (never leaks to the socket as anything but an error line).
class SvcError : public std::runtime_error {
 public:
  SvcError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One parsed request envelope. `body` is the whole request object, so
/// handlers read op-specific parameters from it.
struct Request {
  double id = 0.0;  ///< echoed verbatim; clients choose (JSON number)
  Op op = Op::kPing;
  std::string session;  ///< empty for sessionless ops (stats/drain/ping)
  Json body;
};

/// Parses and validates one request line. Throws SvcError on a framing
/// violation (bad JSON, wrong version, missing op, oversized line).
Request parse_request(std::string_view line);

/// Wire trace id of a request; clients stamp it as an optional numeric
/// "trace" field (protocol v:1 addition). Absent, 0, or not a number in
/// (0, 2^64) = untraced (0).
std::uint64_t trace_of(const Request& req);

/// Response builders. Both return a complete line including the trailing
/// '\n'. `result` must be an object (or null for empty results).
std::string ok_line(double id, const Json& result);
std::string error_line(double id, ErrorCode code, const std::string& message);

/// Payload helpers shared by session, snapshot, client, and tests.

/// Largest integer a JSON number (a double) holds exactly: 2^53.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// Whether `x` is an integer in [lo, hi]: the check a JSON number must
/// pass before any cast to an integer type (NaN fails it).
inline bool is_integer_in(double x, double lo, double hi) {
  return x >= lo && x <= hi && x == std::floor(x);
}

/// Reads a replication-stream counter (an epoch or a record index) into
/// `*out`: an integer in [0, 2^53], 0 when the field is absent or not a
/// number. Returns false, leaving `*out` alone, when the number is
/// fractional or out of range.
bool stream_counter(const Json& msg, std::string_view key, long long* out);

/// Reads a JSON array of finite numbers of length `expect` (-1 = any).
std::vector<double> number_array(const Json& v, int expect,
                                 std::string_view what);

Json to_json(const std::vector<double>& v);

/// Matrix codec (array of equal-width number arrays). `rows`/`cols` of -1
/// accept any count; width is still required to be uniform.
Json matrix_to_json(const core::Matrix& m);
core::Matrix matrix_from_json(const Json& v, int rows, int cols,
                              std::string_view what);

/// Allocation as {"policy": ..., "jobs": [{"id": ..., "shares": [...],
/// "aggregate": ...}]}. Job ids are the session's stable handles, in row
/// order. Doubles round-trip bit-exactly (%.17g).
Json allocation_to_json(const core::Allocation& allocation,
                        const std::vector<long long>& job_ids);

/// Problem snapshot codec used by the `snapshot` op and the drain files.
/// Versioned: {"v":1, "capacities":[...], "nominal":[...], "jobs":[{"id":
/// ..., "demands":[...], "workloads":[...], "weight": ...}]}.
///
/// Multi-resource sessions extend the object additively — "resources",
/// "capacity_matrix" (effective m×R), "nominal_matrix", and a per-job
/// "profile" row — while demands/workloads stay raw task units, so a
/// scalar session's snapshot is byte-identical to the pre-lift format
/// and old snapshots load unchanged. `nominal_matrix` must be non-null
/// exactly when the problem is multi-resource.
Json problem_to_json(const core::AllocationProblem& problem,
                     const std::vector<double>& nominal_capacities,
                     const std::vector<long long>& job_ids,
                     const core::Matrix* nominal_matrix = nullptr);

struct ProblemSnapshot {
  core::AllocationProblem problem;
  std::vector<double> nominal_capacities;
  /// Nominal per-site per-resource capacities; empty on scalar sessions.
  core::Matrix nominal_matrix;
  std::vector<long long> job_ids;
};

/// Inverse of problem_to_json; throws SvcError(kBadRequest) on any shape
/// or value violation.
ProblemSnapshot problem_from_json(const Json& v);

}  // namespace amf::svc
