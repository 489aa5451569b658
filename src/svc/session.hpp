// session.hpp — a named allocation session: one problem, one primed
// workspace, one serving loop.
//
// A session is the unit of state the service multiplexes: it owns an
// AllocationProblem, the SolverWorkspace primed for it, the last served
// allocation, and a bounded request queue. The session runs as a task on
// the shared SvcExecutor (config.executor): delta arrival and batch-window
// expiry schedule it, and at most one of its tasks is in flight, so its
// requests are served in order as if by one dedicated worker.
// Connections submit requests; the session task batches and serves them.
// Every session — created, restored, moved, recovered or streamed to a
// standby — is built by session_from_birth() (below) from a journal
// birth record carrying its policy, batch window, default budget and seq.
// All solver state is touched by that task only, so the solver substrate
// needs no locking.
//
// ## Delta admission (ACK-at-enqueue)
//
// Delta requests (add_job / finish_job / site_event / set_capacity) are
// validated against the session's *projected* state — the state the queue
// will reach once drained — and acknowledged at admission. The contract:
// an acknowledged delta is applied before any later-submitted solve or
// snapshot on the same session observes the state. Jobs are addressed by
// stable handles (the id returned by add_job), never by row index, so
// departures cannot shift another client's references.
//
// ## Batching and coalescing
//
// The session task accumulates requests for `batch_window_ms` after the
// first pending one, then drains a batch: the longest prefix of deltas,
// applied one by one to problem and workspace (the incremental pipeline),
// then a run of consecutive solve/snapshot requests. All solves in the
// run are served by ONE allocator call — the amortization under load —
// and a solve whose state is unchanged since the previous solve is served
// from the cached result without touching the solver at all. Because
// every warm workspace solve is bit-identical to the stateless path,
// coalescing is bit-identical to processing the queue one request at a
// time:
//   * a strict solve (the default) closes the batch at the next delta, so
//     it observes exactly the deltas submitted before it;
//   * a solve with "latest": true lets the session task keep draining
//     deltas past it and serve it at a newer state (its response reports
//     the `seq` actually served, which clients verify or ignore).
//
// ## Admission control
//
// The queue is bounded: submissions beyond `max_queue_depth` receive a
// typed `overloaded` error immediately (never a stall, never a dropped
// connection). At serving time, a solve that waited longer than
// `max_queue_age_ms`, or whose request deadline already expired, is shed
// with the same typed error; acknowledged deltas are never shed (their
// contract was given at admission). A solve with `budget_ms` runs under
// the deadline `enqueued + budget_ms` — queue wait, and anything its run
// serves before the solve, are charged against it — installed around the
// solver chain as the ambient deadline (util::ScopedDeadline).
//
// ## Durability (write-ahead journal) and idempotent retries
//
// With a journal attached, every admitted delta is appended to the
// session's record log *before* its ACK line is sent (see journal.hpp
// for the fsync policies). A journal append failure rolls the admission
// back and the client receives a typed `internal` error instead of an
// ACK the disk never saw. Deltas carrying a `rid` are remembered in a
// bounded dedup window (rid -> original ACK); a retried rid is re-ACKed
// with the original result plus `dup: true` and is never re-applied.
// Recovery replays journal records through the same validate/apply path
// as live traffic (replay_journal_record), so a restarted session is
// bit-identical to the uncrashed one at the same delta prefix. When the
// session is quiescent and the log has grown past
// `journal_compact_every` records, the session task compacts it to a
// single snapshot record.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "core/robust.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"
#include "svc/executor.hpp"
#include "svc/journal.hpp"
#include "svc/proto.hpp"
#include "util/deadline.hpp"

namespace amf::svc {

class ReplSender;

/// Per-session serving parameters (server-wide defaults; a birth record
/// may override policy, batch_window_ms and default_budget_ms).
struct SessionConfig {
  /// Accumulation window: after the first request of a batch arrives, the
  /// session task waits this long for more before serving. 0 = serve
  /// immediately (the unbatched reference behaviour).
  double batch_window_ms = 0.0;
  /// Bounded queue depth; submissions beyond it are shed with
  /// `overloaded`. Must be >= 1.
  std::size_t max_queue_depth = 256;
  /// Shed solves that waited longer than this before serving (0 = off).
  double max_queue_age_ms = 0.0;
  /// Budget applied to solve requests that carry none (0 = unbudgeted).
  double default_budget_ms = 0.0;
  /// Allocation policy: "amf", "eamf", or "psmf".
  std::string policy = "amf";
  /// Bounded rid dedup window (retried deltas ACKed once); 0 disables.
  std::size_t dedup_window = 1024;
  /// Compact the journal to one snapshot record once it holds this many
  /// appends and the session is quiescent (0 = never compact).
  long long journal_compact_every = 4096;
  /// Allocator calls slower than this log a `svc.slow_solve` warning
  /// (0 = disabled).
  double slow_solve_ms = 0.0;
  /// Shared session executor the session runs on. Required (the
  /// constructor rejects null); it must outlive the session. Servers
  /// pass their own pool; standalone sessions pass any long-lived one.
  SvcExecutor* executor = nullptr;
};

/// Registry handles for the service metrics (global registry; created
/// once, shared by every session).
struct SvcMetrics {
  obs::Counter requests_create_session;
  obs::Counter requests_add_job;
  obs::Counter requests_finish_job;
  obs::Counter requests_site_event;
  obs::Counter requests_set_capacity;
  obs::Counter requests_solve;
  obs::Counter requests_snapshot;
  obs::Counter requests_stats;
  obs::Counter requests_drain;
  obs::Counter requests_ping;
  obs::Counter requests_promote;
  obs::Counter requests_evict_session;
  obs::Counter rejects;        ///< admission-control sheds (typed overloaded)
  obs::Counter batches;        ///< batches drained
  obs::Counter solve_calls;    ///< allocator invocations
  obs::Counter solves_served;  ///< solve responses (>= solve_calls: coalescing)
  obs::Counter cache_hits;     ///< solves served from the unchanged-state cache
  obs::Counter journal_records;      ///< deltas appended to session journals
  obs::Counter journal_syncs;        ///< explicit fsyncs (always + batch)
  obs::Counter journal_compactions;  ///< snapshot-compactions performed
  obs::Counter dedup_hits;  ///< retried deltas re-ACKed from the rid window
  /// Journal-replay truncate-and-warn events (torn tails, rejected
  /// records, unreadable files) — silent tail loss made visible.
  obs::Counter journal_replay_warnings;
  // --- replication / HA (see repl.hpp and DESIGN.md §15) ---
  obs::Counter repl_sent;        ///< records written to the standby stream
  obs::Counter repl_acked;       ///< records the standby confirmed
  obs::Counter repl_applied;     ///< records this standby applied
  obs::Counter repl_fenced;      ///< stale-epoch rejections (either side)
  obs::Counter repl_reconnects;  ///< sender reconnects to the standby
  obs::Gauge role;               ///< 1 = primary, 0 = warm standby
  obs::Gauge epoch;              ///< current fencing epoch
  obs::Gauge repl_lag_records;   ///< records offered but unacked
  obs::Gauge repl_lag_bytes;     ///< bytes offered but unacked
  obs::Gauge repl_lag_ms;        ///< age of the oldest unacked record
  // --- scale-out serving (see DESIGN.md §16) ---
  obs::Gauge open_connections;        ///< live client connections
  obs::Gauge executor_queue_depth;    ///< tasks queued in the executor
  obs::Histogram batch_size;     ///< requests per drained batch
  obs::Histogram turnaround_ms;  ///< enqueue -> response, solve requests
  // Per-stage request latency breakdown (one histogram per pipeline
  // stage a traced request passes through; see DESIGN.md §14).
  obs::Histogram stage_parse_ms;       ///< wire line -> parsed Request
  obs::Histogram stage_queue_ms;       ///< enqueue -> batch drain start
  obs::Histogram stage_batch_wait_ms;  ///< accumulation-window wait
  obs::Histogram stage_solve_ms;       ///< allocator wall time per solve
  obs::Histogram stage_journal_ms;     ///< write-ahead append (+fsync)
  obs::Histogram stage_reply_ms;       ///< response serialization + write

  /// The process-wide instance (registered in Registry::global()).
  static SvcMetrics& get();
  obs::Counter& request_counter(Op op);
};

class Session {
 public:
  /// Delivers one complete response line (with trailing '\n') to the
  /// client. Must be thread-safe; called from the submitting thread
  /// (delta ACKs, sheds) and from the session's executor task (solve
  /// results).
  using Responder = std::function<void(std::string line)>;

  /// A session over `snapshot` (a fresh one has no jobs) whose delta
  /// sequence counter starts at `seq` and whose rid dedup window starts
  /// as `dedup` ((rid, original ACK) pairs in admission order). A
  /// multi-resource problem makes add_job accept a "profile" row,
  /// site_event a "capacity_factors" row and set_capacity a capacity
  /// vector. Only session_from_birth() calls this; it validates what the
  /// constructor trusts.
  Session(std::string name, ProblemSnapshot snapshot, SessionConfig config,
          long long seq, std::vector<std::pair<std::string, Json>> dedup);

  /// Waits out the in-flight executor task without serving the
  /// remaining queue (fast teardown); drain() first for the graceful
  /// path.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }

  /// Admission + dispatch. Always responds exactly once per request
  /// (immediately for ACKs and sheds, from the executor task otherwise).
  void submit(const Request& req, Responder respond);

  /// Attaches the write-ahead journal. Must run before the session sees
  /// traffic (server setup / recovery only); the session owns it.
  void attach_journal(std::unique_ptr<Journal> journal);
  bool has_journal() const { return journal_ != nullptr; }

  /// Attaches the primary's replication stream (server start only; the
  /// server owns the sender and outlives the session). Every journal
  /// payload this session appends is then also offered to the standby,
  /// in admission order; in ack mode delta ACKs additionally wait for
  /// the standby's confirmation (see submit()).
  void attach_replication(ReplSender* repl);

  /// Deltas admitted so far (thread-safe; standby catch-up probes).
  long long enqueued_seq();

  /// Standby-side apply support: journal a replicated record / compact
  /// to a replicated snapshot payload. Only safe while the session is
  /// quiescent (a standby session sees no client traffic).
  void journal_append_replicated(const std::string& payload);
  void compact_journal_replicated(const std::string& payload);

  /// Applies one replayed journal delta record through the live
  /// validate/apply path (recovery only, before traffic). Returns false
  /// and fills `error` on a record the current state rejects — the
  /// caller stops the replay there and truncates the log.
  bool replay_journal_record(const Json& record, std::string* error);

  /// Compacts the journal to a single snapshot record. Only safe after
  /// drain() (no task in flight); the live path compacts from the task.
  void compact_journal_after_drain();

  /// Snapshot-record payload for compaction ({"t":"snapshot",...} with
  /// the session config and, when non-empty, the rid dedup window
  /// embedded so recovery can rebuild the session).
  std::string snapshot_record_payload_locked_state() const;

  /// Serves everything already admitted, then leaves the session idle. New
  /// submissions during and after the drain are shed with `draining`.
  /// Idempotent.
  void drain();

  /// Session state as a restorable snapshot (problem + nominal
  /// capacities + job ids + last allocation). Only safe after drain()
  /// (no task in flight) — the in-band `snapshot` op is the live-session
  /// path.
  Json snapshot_json_after_drain();

  /// snapshot_json_after_drain() plus policy, batch_window_ms,
  /// default_budget_ms and (when non-empty) the rid dedup window: a
  /// drain-file entry, and the snapshot evict_session hands over. Only
  /// safe after drain().
  Json carried_json_after_drain();

  /// Queue/state counters for the stats op (thread-safe).
  Json info_json();

 private:
  struct Item {
    Request req;
    Responder respond;
    std::chrono::steady_clock::time_point enqueued;
    double budget_ms = 0.0;  ///< solve: effective budget (0 = unbudgeted)
    bool latest = false;     ///< solve: may be served at a newer state
    long long job_id = -1;   ///< add_job: assigned handle; finish_job: target
    std::uint64_t trace = 0;  ///< wire trace id (0 = untraced request)
    std::string rid;         ///< delta: client retry id ("" = none)
    int prev_workloads_mode = -2;  ///< add_job: mode before admission
    /// set_capacity: the site's projected nominal row before admission.
    std::vector<double> prev_nominal;
  };

  void validate_delta_locked(const Request& req, Item* item);
  /// Undoes the projected-state mutation of validate_delta_locked (a
  /// journal append failed after admission; the ACK must not be owed).
  void rollback_delta_locked(const Item& item);
  /// Journal payload of one admitted delta.
  std::string delta_record_payload_locked(const Item& item,
                                          long long seq) const;
  void remember_ack_locked(const std::string& rid, const Json& ack,
                           std::uint64_t repl_index);
  /// Queues the session as a runnable task unless one is already queued
  /// or running (`scheduled_`).
  void schedule_locked();
  /// One executor slice: waits out the batch window by rescheduling via
  /// submit_after, drains ONE batch (all batches when draining), then
  /// reschedules itself while work remains.
  void executor_run();
  /// Cancels the slice parked on its batch-window timer, if any. True
  /// when the timer had not fired: the caller then owns the slice and
  /// must clear scheduled_ when done with it.
  bool take_parked_slice_locked();
  /// Drains one batch (deltas + solve/snapshot run + fsync + compaction)
  /// from the front of the queue. Entered and left with `lock` held;
  /// unlocked across the allocator work. Shared verbatim by the executor
  /// slices and the drain flush, so a drain batches exactly like live
  /// serving.
  void process_batch(std::unique_lock<std::mutex>& lock);
  /// Applies one admitted delta to problem + workspace + id map.
  void apply_delta(const Item& item);
  /// Serves a run of consecutive solve/snapshot items (state unchanged
  /// across the run).
  void serve_run(std::vector<Item>* run);
  Json snapshot_json_locked_state() const;
  Json solve_result_json(const Item& item) const;

  const std::string name_;
  const SessionConfig config_;

  // --- queue + projected state (guarded by mu_) ---
  std::mutex mu_;
  std::deque<Item> queue_;
  bool draining_ = false;
  bool stopped_ = false;
  /// A task for this session is queued or running
  /// (including parked on a batch-window timer). While true, `this` must
  /// stay alive; drain() and the destructor wait on idle_cv_ for it to
  /// clear, or cancel a parked slice's timer and clear it themselves.
  /// Clearing it is the task's final touch of the session.
  bool scheduled_ = false;
  std::condition_variable idle_cv_;
  /// The batch-window timer the slice is parked on, while it is parked.
  std::optional<SvcExecutor::TimerId> parked_;
  /// When the current batch first deferred for its accumulation window
  /// (epoch = no deferral pending); feeds the stage_batch_wait_ms
  /// histogram.
  std::chrono::steady_clock::time_point window_wait_start_{};
  /// Resource count R and problem_.multi_resource(), fixed at
  /// construction. Admission validates against them while the session
  /// task rewrites problem_, so they must not be read off problem_.
  int resources_ = 1;
  bool multi_ = false;
  long long next_job_id_ = 0;
  std::unordered_set<long long> projected_alive_;
  /// nominal_matrix_ after every admitted delta: what site_event admission
  /// scales (nominal_matrix_ itself is the session task's).
  core::Matrix projected_nominal_;
  /// -1 unknown (no job seen yet), else 0/1: whether jobs carry workloads.
  int workloads_mode_ = -1;
  long long enqueued_seq_ = 0;   ///< deltas admitted
  long long processed_seq_ = 0;  ///< deltas applied (session task)
  /// rid -> original delta ACK plus the replication index its record was
  /// offered under (0 = none pending: no replication, or a replayed
  /// record), bounded FIFO (config_.dedup_window). In repl-ack mode a
  /// dedup re-ACK waits for `repl_index` like the original did, so no
  /// ACK — first or retried — escapes without standby confirmation.
  struct DedupEntry {
    Json ack;
    std::uint64_t repl_index = 0;
  };
  std::unordered_map<std::string, DedupEntry> dedup_ack_;
  std::deque<std::string> dedup_order_;
  /// The window as a [{"rid","ack"}] array in admission order.
  Json dedup_json_locked() const;
  /// Write-ahead log; appends happen under mu_ so record order always
  /// matches admission (seq) order.
  std::unique_ptr<Journal> journal_;
  /// Primary → standby stream (server-owned; nullptr = no replication).
  /// offer() happens under mu_ right after the journal append, so the
  /// stream carries records in seq order; ack waiting happens off mu_.
  ReplSender* repl_ = nullptr;

  // --- solver state (session task only; after drain: owner thread) ---
  core::AllocationProblem problem_;
  core::SolverWorkspace workspace_;
  /// Nominal m×R capacity matrix (R = 1 on a scalar session): what
  /// set_capacity sets and site_event factors scale.
  core::Matrix nominal_matrix_;
  std::vector<long long> job_ids_;        ///< row -> stable handle
  core::Allocation last_allocation_;
  bool has_allocation_ = false;
  bool cacheable_ = false;      ///< last_allocation_ was an unbudgeted solve
  long long seq_ = 0;           ///< deltas applied (task-local mirror)
  long long last_solve_seq_ = -1;
  std::string last_tier_;
  std::string broken_;  ///< non-empty: solver state is wedged (internal bug)

  std::unique_ptr<core::Allocator> base_policy_;
  std::unique_ptr<core::RobustAllocator> robust_;
};

/// One solve of a coalesced run, as its budget sees it: when it was
/// enqueued and its budget in milliseconds (0 = unbudgeted).
struct SolveBudget {
  std::chrono::steady_clock::time_point enqueued;
  double budget_ms = 0.0;
};

/// The deadline a coalesced run's one solve runs under: the earliest
/// `enqueued + budget_ms` (saturating) over the budgeted solves, so every
/// request's own budget holds from the moment it was enqueued.
/// Deadline::never() when none carries a budget.
util::Deadline run_deadline(const std::vector<SolveBudget>& solves);

/// The allocator a policy name selects ("amf", "eamf" or "psmf"), or
/// nullptr for any other name.
std::unique_ptr<core::Allocator> make_policy(const std::string& name);

/// The one way a session comes into being, from a journal birth record:
/// {"t":"create","session","capacities"[,"resources"]} (seq 0) or
/// {"t":"snapshot","seq","snapshot"[,"dedup"]} (named by the snapshot's
/// "session"), either with optional "policy", "batch_window_ms" and
/// "default_budget_ms" overriding `defaults`. "dedup" is the rid window
/// dedup_json_after_drain() writes. The one validator: the policy must
/// be known, window and budget finite and >= 0, "resources" an integer
/// in [1, INT_MAX], "seq" an integer >= 0, capacities non-empty and
/// >= 0, job ids distinct, every dedup entry a non-empty "rid" with an
/// "ack" object; else SvcError(kBadRequest).
std::unique_ptr<Session> session_from_birth(const Json& birth,
                                            const SessionConfig& defaults);

}  // namespace amf::svc
