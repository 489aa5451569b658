#include "svc/session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/persite.hpp"
#include "obs/span.hpp"
#include "svc/executor.hpp"
#include "svc/repl.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace amf::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

/// The capacity row a site_event sets: the site's nominal capacities
/// scaled by `capacity_factors` (one per resource) or `capacity_factor`.
std::vector<double> site_event_capacities(const std::vector<double>& nominal,
                                          const Json& body) {
  const Json* factors = body.find("capacity_factors");
  std::vector<double> row(nominal.size());
  for (std::size_t r = 0; r < nominal.size(); ++r)
    row[r] = nominal[r] * (factors != nullptr
                               ? factors->as_array()[r].as_number()
                               : body.number_or("capacity_factor", 1.0));
  return row;
}

bool is_delta_op(Op op) {
  return op == Op::kAddJob || op == Op::kFinishJob || op == Op::kSiteEvent ||
         op == Op::kSetCapacity;
}

/// Typed error for a delta whose standby confirmation did not arrive
/// (repl-ack mode). The delta IS applied locally — the message says so,
/// and a retried rid re-checks the confirmation instead of re-applying.
std::string repl_wait_error(double id, ReplSender::WaitResult wait) {
  switch (wait) {
    case ReplSender::WaitResult::kFenced:
      return error_line(id, ErrorCode::kNotPrimary,
                        "replication fenced by a higher epoch: this server "
                        "was deposed; retry against the new primary");
    case ReplSender::WaitResult::kBroken:
      return error_line(id, ErrorCode::kInternal,
                        "replication stream broken; delta applied locally "
                        "but unconfirmed by the standby");
    default:
      return error_line(id, ErrorCode::kInternal,
                        "standby confirmation timed out; delta applied "
                        "locally, retry to re-check confirmation");
  }
}

}  // namespace

util::Deadline run_deadline(const std::vector<SolveBudget>& solves) {
  util::Deadline deadline;
  for (const SolveBudget& solve : solves)
    if (solve.budget_ms > 0.0)
      deadline = util::Deadline::earlier(
          deadline, util::Deadline::at(util::saturating_after_ms(
                        solve.enqueued, solve.budget_ms)));
  return deadline;
}

std::unique_ptr<core::Allocator> make_policy(const std::string& name) {
  if (name == "amf") return std::make_unique<core::AmfAllocator>();
  if (name == "eamf") return std::make_unique<core::EnhancedAmfAllocator>();
  if (name == "psmf") return std::make_unique<core::PerSiteMaxMin>();
  return nullptr;
}

SvcMetrics& SvcMetrics::get() {
  static SvcMetrics m = [] {
    auto& reg = obs::Registry::global();
    SvcMetrics out;
    out.requests_create_session = reg.counter(
        "amf_svc_requests_total_create_session", "create_session requests");
    out.requests_add_job =
        reg.counter("amf_svc_requests_total_add_job", "add_job requests");
    out.requests_finish_job =
        reg.counter("amf_svc_requests_total_finish_job", "finish_job requests");
    out.requests_site_event =
        reg.counter("amf_svc_requests_total_site_event", "site_event requests");
    out.requests_set_capacity = reg.counter(
        "amf_svc_requests_total_set_capacity", "set_capacity requests");
    out.requests_solve =
        reg.counter("amf_svc_requests_total_solve", "solve requests");
    out.requests_snapshot =
        reg.counter("amf_svc_requests_total_snapshot", "snapshot requests");
    out.requests_stats =
        reg.counter("amf_svc_requests_total_stats", "stats requests");
    out.requests_drain =
        reg.counter("amf_svc_requests_total_drain", "drain requests");
    out.requests_ping =
        reg.counter("amf_svc_requests_total_ping", "ping requests");
    out.requests_promote =
        reg.counter("amf_svc_requests_total_promote", "promote requests");
    out.requests_evict_session = reg.counter(
        "amf_svc_requests_total_evict_session", "evict_session requests");
    out.rejects = reg.counter(
        "amf_svc_rejects_total",
        "requests shed by admission control (typed overloaded responses)");
    out.batches =
        reg.counter("amf_svc_batches_total", "request batches drained");
    out.solve_calls = reg.counter("amf_svc_solve_calls_total",
                                  "allocator invocations by the service");
    out.solves_served =
        reg.counter("amf_svc_solves_served_total",
                    "solve responses (exceeds solve_calls under coalescing)");
    out.cache_hits =
        reg.counter("amf_svc_solve_cache_hits_total",
                    "solves served from the unchanged-state result cache");
    out.journal_records =
        reg.counter("amf_svc_journal_records_total",
                    "deltas appended to session write-ahead journals");
    out.journal_syncs = reg.counter(
        "amf_svc_journal_syncs_total",
        "journal fsyncs (one per ACK at always, one per batch at batch)");
    out.journal_compactions =
        reg.counter("amf_svc_journal_compactions_total",
                    "journal snapshot-compactions performed");
    out.dedup_hits = reg.counter(
        "amf_svc_dedup_hits_total",
        "retried deltas re-ACKed from the rid window without re-applying");
    out.journal_replay_warnings = reg.counter(
        "amf_svc_journal_replay_warnings",
        "journal-replay truncate-and-warn events (torn tails, rejected or "
        "unreadable records)");
    out.repl_sent = reg.counter("amf_svc_repl_sent_total",
                                "journal records sent to the standby");
    out.repl_acked = reg.counter("amf_svc_repl_acked_total",
                                 "journal records the standby confirmed");
    out.repl_applied = reg.counter("amf_svc_repl_applied_total",
                                   "replicated records applied as standby");
    out.repl_fenced = reg.counter(
        "amf_svc_repl_fenced_total",
        "replication messages rejected for carrying a stale epoch");
    out.repl_reconnects = reg.counter("amf_svc_repl_reconnects_total",
                                      "replication sender reconnects");
    out.role = reg.gauge("amf_svc_role",
                         "serving role: 1 = primary, 0 = warm standby");
    out.epoch = reg.gauge("amf_svc_epoch", "current fencing epoch");
    out.repl_lag_records = reg.gauge(
        "amf_svc_repl_lag_records", "records offered but unacked by standby");
    out.repl_lag_bytes = reg.gauge(
        "amf_svc_repl_lag_bytes", "bytes offered but unacked by standby");
    out.repl_lag_ms = reg.gauge("amf_svc_repl_lag_ms",
                                "age of the oldest unacked record (ms)");
    out.open_connections = reg.gauge("amf_svc_open_connections",
                                     "live client connections");
    out.executor_queue_depth =
        reg.gauge("amf_svc_executor_queue_depth",
                  "tasks queued in the shared session executor");
    out.batch_size =
        reg.histogram("amf_svc_batch_size", "requests per drained batch");
    out.turnaround_ms = reg.histogram(
        "amf_svc_turnaround_ms", "solve enqueue-to-response latency (ms)");
    out.stage_parse_ms = reg.histogram(
        "amf_svc_stage_parse_ms", "request line parse time (ms)");
    out.stage_queue_ms = reg.histogram(
        "amf_svc_stage_queue_ms", "enqueue to batch-drain start (ms)");
    out.stage_batch_wait_ms =
        reg.histogram("amf_svc_stage_batch_wait_ms",
                      "batch accumulation-window wait per batch (ms)");
    out.stage_solve_ms = reg.histogram(
        "amf_svc_stage_solve_ms", "allocator call time per solve stage (ms)");
    out.stage_journal_ms = reg.histogram(
        "amf_svc_stage_journal_ms", "write-ahead journal append time (ms)");
    out.stage_reply_ms = reg.histogram(
        "amf_svc_stage_reply_ms", "response write time (ms)");
    return out;
  }();
  return m;
}

obs::Counter& SvcMetrics::request_counter(Op op) {
  switch (op) {
    case Op::kCreateSession: return requests_create_session;
    case Op::kAddJob: return requests_add_job;
    case Op::kFinishJob: return requests_finish_job;
    case Op::kSiteEvent: return requests_site_event;
    case Op::kSetCapacity: return requests_set_capacity;
    case Op::kSolve: return requests_solve;
    case Op::kSnapshot: return requests_snapshot;
    case Op::kStats: return requests_stats;
    case Op::kDrain: return requests_drain;
    case Op::kPing: return requests_ping;
    case Op::kPromote: return requests_promote;
    case Op::kEvictSession: return requests_evict_session;
  }
  return requests_ping;
}

Session::Session(std::string name, ProblemSnapshot snapshot,
                 SessionConfig config, long long seq,
                 std::vector<std::pair<std::string, Json>> dedup)
    : name_(std::move(name)), config_(std::move(config)) {
  AMF_REQUIRE(config_.max_queue_depth >= 1, "max_queue_depth must be >= 1");
  AMF_REQUIRE(config_.executor != nullptr, "a session needs an executor");
  AMF_REQUIRE(seq >= 0, "seq must be >= 0");
  base_policy_ = make_policy(config_.policy);
  AMF_REQUIRE(base_policy_ != nullptr, "unknown policy " + config_.policy);
  robust_ = std::make_unique<core::RobustAllocator>(*base_policy_);
  enqueued_seq_ = processed_seq_ = seq_ = seq;
  problem_ = std::move(snapshot.problem);
  resources_ = problem_.resources();
  multi_ = problem_.multi_resource();
  if (multi_) {
    nominal_matrix_ = std::move(snapshot.nominal_matrix);
  } else {
    for (double c : snapshot.nominal_capacities) nominal_matrix_.push_back({c});
  }
  projected_nominal_ = nominal_matrix_;
  job_ids_ = std::move(snapshot.job_ids);
  for (long long id : job_ids_) {
    projected_alive_.insert(id);
    next_job_id_ = std::max(next_job_id_, id + 1);
  }
  if (problem_.jobs() > 0)
    workloads_mode_ = problem_.has_workloads() ? 1 : 0;
  // A carried-over ACK owes no standby confirmation (repl_index 0): the
  // birth record that carries the window already covers its delta.
  for (const auto& [rid, ack] : dedup) remember_ack_locked(rid, ack, 0);
  util::Logger::global()
      .info("svc.session_start")
      .str("session", name_)
      .str("policy", config_.policy)
      .num("sites", nominal_matrix_.size())
      .num("resources", resources_)
      .num("jobs", job_ids_.size())
      .num("seq", seq);
}

Session::~Session() {
  std::deque<Item> leftovers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopped_ = true;
    // Wait for the in-flight task; a slice parked on its batch-window
    // timer is cancelled instead of waited out.
    if (take_parked_slice_locked()) scheduled_ = false;
    idle_cv_.wait(lock, [this] { return !scheduled_; });
    leftovers.swap(queue_);
  }
  for (const Item& item : leftovers)
    if (item.respond)
      item.respond(error_line(item.req.id, ErrorCode::kDraining,
                              "session stopped before serving this request"));
}

void Session::submit(const Request& req, Responder respond) {
  auto& metrics = SvcMetrics::get();
  Item item;
  item.req = req;
  item.respond = std::move(respond);
  item.enqueued = Clock::now();
  item.trace = trace_of(req);
  AMF_SPAN_FLOW_STEP("svc/enqueue", item.trace);

  std::unique_lock<std::mutex> lock(mu_);
  if (draining_ || stopped_) {
    lock.unlock();
    util::Logger::global()
        .info("svc.shed")
        .str("session", name_)
        .str("reason", "draining")
        .trace(item.trace);
    item.respond(error_line(req.id, ErrorCode::kDraining,
                            "session \"" + name_ + "\" is draining"));
    return;
  }
  if (queue_.size() >= config_.max_queue_depth) {
    lock.unlock();
    metrics.rejects.add();
    util::Logger::global()
        .warn("svc.shed")
        .str("session", name_)
        .str("reason", "queue_full")
        .num("depth", config_.max_queue_depth)
        .trace(item.trace);
    item.respond(error_line(
        req.id, ErrorCode::kOverloaded,
        "session \"" + name_ + "\" queue full (depth " +
            std::to_string(config_.max_queue_depth) + ")"));
    return;
  }

  if (is_delta_op(req.op)) {
    item.rid = req.body.string_or("rid", "");
    // Idempotent retry: a rid we already ACKed is answered from the
    // window verbatim (same seq, same job handle) and never re-applied.
    if (!item.rid.empty()) {
      const auto hit = dedup_ack_.find(item.rid);
      if (hit != dedup_ack_.end()) {
        Json ack = hit->second.ack;
        const std::uint64_t pending = hit->second.repl_index;
        lock.unlock();
        metrics.dedup_hits.add();
        AMF_SPAN_FLOW_STEP("svc/dedup_hit", item.trace);
        // In repl-ack mode the retried ACK owes the same guarantee the
        // original did: the standby has the record. The delta stays
        // applied either way — only the confirmation is awaited.
        if (repl_ != nullptr && repl_->ack_mode() && pending != 0 &&
            !repl_->acked(pending)) {
          const auto wait =
              repl_->wait_acked(pending, repl_->ack_timeout_ms());
          if (wait != ReplSender::WaitResult::kAcked) {
            item.respond(repl_wait_error(req.id, wait));
            return;
          }
        }
        ack.set("dup", Json(true));
        item.respond(ok_line(req.id, ack));
        return;
      }
    }
    Json ack;
    try {
      validate_delta_locked(req, &item);
      ++enqueued_seq_;
      ack = Json::object();
      ack.set("seq", Json(enqueued_seq_));
      if (req.op == Op::kAddJob) ack.set("job", Json(item.job_id));
    } catch (const SvcError& e) {
      lock.unlock();
      item.respond(error_line(req.id, e.code(), e.what()));
      return;
    }
    // Write-ahead: the record must be on the log (and, under
    // fsync=always, on the platter) before the ACK escapes. Appending
    // under mu_ keeps record order identical to seq order. A failed
    // append rolls the admission back — no ACK without a journal entry.
    std::uint64_t repl_index = 0;
    if (journal_ != nullptr) {
      std::string payload;
      try {
        const auto append_start = Clock::now();
        {
          AMF_SPAN_FLOW_STEP("svc/journal_append", item.trace);
          payload = delta_record_payload_locked(item, enqueued_seq_);
          journal_->append(payload);
        }
        metrics.stage_journal_ms.observe(
            ms_since(append_start, Clock::now()));
        metrics.journal_records.add();
        if (journal_->policy() == FsyncPolicy::kAlways)
          metrics.journal_syncs.add();
      } catch (const std::exception& e) {
        --enqueued_seq_;
        rollback_delta_locked(item);
        lock.unlock();
        item.respond(error_line(
            req.id, ErrorCode::kInternal,
            std::string("journal append failed: ") + e.what()));
        return;
      }
      // Stream the record to the standby in admission (seq) order.
      // Never roll back past this point: once the record may exist
      // remotely, reusing its seq for different content would silently
      // diverge the standby. A failed offer therefore keeps the delta
      // admitted; only the ACK semantics change (see below).
      if (repl_ != nullptr) (void)repl_->offer(name_, payload, &repl_index);
    }
    if (!item.rid.empty()) remember_ack_locked(item.rid, ack, repl_index);
    // ACK at admission: the delta is now owed to every later solve. The
    // queued copy carries no responder — the session task never replies
    // to deltas, and teardown must not reply twice.
    Responder respond_ack = std::move(item.respond);
    item.respond = nullptr;
    queue_.push_back(std::move(item));
    schedule_locked();
    lock.unlock();
    // repl-ack mode: the ACK is withheld until the standby confirms the
    // append (off mu_, so the session keeps serving). On timeout or a
    // terminal sender the client gets a typed error while the delta
    // stays applied — a retry of the same rid re-checks the
    // confirmation through the dedup window, never re-applies.
    if (repl_ != nullptr && repl_->ack_mode() && repl_index != 0) {
      const auto wait =
          repl_->wait_acked(repl_index, repl_->ack_timeout_ms());
      if (wait != ReplSender::WaitResult::kAcked) {
        respond_ack(repl_wait_error(req.id, wait));
        return;
      }
    }
    respond_ack(ok_line(req.id, ack));
    return;
  }

  if (req.op == Op::kSolve) {
    item.budget_ms = req.body.number_or("budget_ms", config_.default_budget_ms);
    if (!std::isfinite(item.budget_ms) || item.budget_ms < 0.0) {
      lock.unlock();
      item.respond(error_line(req.id, ErrorCode::kBadRequest,
                              "budget_ms must be finite and >= 0"));
      return;
    }
    item.latest = req.body.bool_or("latest", false);
  } else if (req.op != Op::kSnapshot) {
    lock.unlock();
    item.respond(error_line(req.id, ErrorCode::kBadRequest,
                            std::string("op ") + to_string(req.op) +
                                " is not a session op"));
    return;
  }
  queue_.push_back(std::move(item));
  schedule_locked();
}

void Session::validate_delta_locked(const Request& req, Item* item) {
  const int m = static_cast<int>(nominal_matrix_.size());
  const Json& body = req.body;
  switch (req.op) {
    case Op::kAddJob: {
      const Json* demands = body.find("demands");
      if (demands == nullptr)
        throw SvcError(ErrorCode::kBadRequest, "add_job needs demands");
      auto d = number_array(*demands, m, "demands");
      for (double x : d)
        if (x < 0.0)
          throw SvcError(ErrorCode::kBadRequest, "demands must be >= 0");
      const Json* workloads = body.find("workloads");
      const bool with_workloads = workloads != nullptr;
      if (workloads_mode_ >= 0 && with_workloads != (workloads_mode_ == 1))
        throw SvcError(ErrorCode::kBadRequest,
                       "all jobs of a session must agree on carrying "
                       "workloads");
      std::vector<double> w;
      if (with_workloads) {
        w = number_array(*workloads, m, "workloads");
        for (int s = 0; s < m; ++s) {
          if (w[static_cast<std::size_t>(s)] < 0.0)
            throw SvcError(ErrorCode::kBadRequest, "workloads must be >= 0");
          if (w[static_cast<std::size_t>(s)] > 0.0 &&
              d[static_cast<std::size_t>(s)] <= 0.0)
            throw SvcError(ErrorCode::kBadRequest,
                           "positive workload requires a positive demand cap");
        }
      }
      const double weight = body.number_or("weight", 1.0);
      if (!std::isfinite(weight) || weight <= 0.0)
        throw SvcError(ErrorCode::kBadRequest, "weight must be finite, > 0");
      const Json* profile = body.find("profile");
      double gamma = 1.0;
      if (profile != nullptr) {
        if (!multi_)
          throw SvcError(ErrorCode::kBadRequest,
                         "job profiles need a multi-resource session");
        auto p = number_array(*profile, resources_, "profile");
        bool any = false;
        for (double x : p) {
          if (x < 0.0)
            throw SvcError(ErrorCode::kBadRequest,
                           "profile entries must be >= 0");
          any = any || x > 0.0;
        }
        if (!any)
          throw SvcError(ErrorCode::kBadRequest,
                         "a job profile needs a positive entry");
        gamma = *std::max_element(p.begin(), p.end());
      }
      // The multi-resource lift scales the row by the profile's largest
      // entry; an overflow there would throw inside apply_delta, after the
      // ACK.
      for (const auto* row : {&d, &w})
        for (double x : *row)
          if (!std::isfinite(x * gamma))
            throw SvcError(ErrorCode::kBadRequest,
                           "demands and workloads times the profile's "
                           "largest entry must be finite");
      item->prev_workloads_mode = workloads_mode_;
      item->job_id = next_job_id_++;
      projected_alive_.insert(item->job_id);
      if (workloads_mode_ < 0) workloads_mode_ = with_workloads ? 1 : 0;
      return;
    }
    case Op::kFinishJob: {
      const Json* job = body.find("job");
      if (job == nullptr || !job->is_number())
        throw SvcError(ErrorCode::kBadRequest, "finish_job needs a job id");
      const double id = job->as_number();
      if (!is_integer_in(id, 0, kMaxExactInteger) ||
          projected_alive_.erase(static_cast<long long>(id)) == 0)
        throw SvcError(ErrorCode::kBadRequest,
                       "unknown job id " + job->dump());
      item->job_id = static_cast<long long>(id);
      return;
    }
    case Op::kSiteEvent: {
      const double site = body.number_or("site", -1.0);
      if (!is_integer_in(site, 0, m - 1))
        throw SvcError(ErrorCode::kBadRequest, "site index out of range");
      const Json* factors = body.find("capacity_factors");
      if (factors != nullptr) {
        if (!multi_)
          throw SvcError(ErrorCode::kBadRequest,
                         "capacity_factors needs a multi-resource session");
        auto f = number_array(*factors, resources_, "capacity_factors");
        for (double x : f)
          if (x < 0.0)
            throw SvcError(ErrorCode::kBadRequest,
                           "capacity_factors entries must be >= 0");
      } else {
        const double factor = body.number_or("capacity_factor", -1.0);
        if (!std::isfinite(factor) || factor < 0.0)
          throw SvcError(ErrorCode::kBadRequest,
                         "capacity_factor must be finite and >= 0");
      }
      // A product that overflows would throw inside apply_delta, after
      // the ACK.
      for (double c : site_event_capacities(
               projected_nominal_[static_cast<std::size_t>(site)], body))
        if (!std::isfinite(c))
          throw SvcError(ErrorCode::kBadRequest,
                         "site_event capacity (nominal x factor) must be "
                         "finite");
      return;
    }
    case Op::kSetCapacity: {
      const double site = body.number_or("site", -1.0);
      const Json* value = body.find("value");
      if (!is_integer_in(site, 0, m - 1))
        throw SvcError(ErrorCode::kBadRequest, "site index out of range");
      if (multi_) {
        if (value == nullptr || !value->is_array())
          throw SvcError(ErrorCode::kBadRequest,
                         "set_capacity on a multi-resource session needs a "
                         "capacity vector value");
        auto row = number_array(*value, resources_, "value");
        for (double c : row)
          if (c < 0.0)
            throw SvcError(ErrorCode::kBadRequest,
                           "capacity entries must be >= 0");
        item->prev_nominal = std::exchange(
            projected_nominal_[static_cast<std::size_t>(site)],
            std::move(row));
        return;
      }
      if (value == nullptr || !value->is_number() ||
          !std::isfinite(value->as_number()) || value->as_number() < 0.0)
        throw SvcError(ErrorCode::kBadRequest,
                       "set_capacity needs a finite value >= 0");
      item->prev_nominal =
          std::exchange(projected_nominal_[static_cast<std::size_t>(site)],
                        {value->as_number()});
      return;
    }
    default:
      throw SvcError(ErrorCode::kBadRequest, "not a delta op");
  }
}

void Session::apply_delta(const Item& item) {
  const Json& body = item.req.body;
  core::ProblemDelta delta;
  switch (item.req.op) {
    case Op::kAddJob: {
      const int m = static_cast<int>(nominal_matrix_.size());
      auto demands = number_array(*body.find("demands"), m, "demands");
      std::vector<double> workloads;
      const Json* w = body.find("workloads");
      if (w != nullptr) workloads = number_array(*w, m, "workloads");
      std::vector<double> profile;
      const Json* p = body.find("profile");
      if (p != nullptr)
        profile = number_array(*p, problem_.resources(), "profile");
      delta = core::ProblemDelta::job_arrived(std::move(demands),
                                              std::move(workloads),
                                              body.number_or("weight", 1.0),
                                              {}, std::move(profile));
      job_ids_.push_back(item.job_id);
      break;
    }
    case Op::kFinishJob: {
      const auto row = std::find(job_ids_.begin(), job_ids_.end(),
                                 item.job_id);
      AMF_ASSERT(row != job_ids_.end(), "admitted job id lost");
      delta = core::ProblemDelta::job_departed(
          static_cast<int>(row - job_ids_.begin()));
      job_ids_.erase(row);
      break;
    }
    case Op::kSiteEvent: {
      const int site = static_cast<int>(body.number_or("site", 0.0));
      auto row = site_event_capacities(
          nominal_matrix_[static_cast<std::size_t>(site)], body);
      delta = multi_ ? core::ProblemDelta::set_capacity_vec(site,
                                                            std::move(row))
                     : core::ProblemDelta::site_capacity(site, row[0]);
      break;
    }
    case Op::kSetCapacity: {
      const int site = static_cast<int>(body.number_or("site", 0.0));
      const auto su = static_cast<std::size_t>(site);
      if (multi_) {
        auto row = number_array(*body.find("value"), resources_, "value");
        nominal_matrix_[su] = row;
        delta = core::ProblemDelta::set_capacity_vec(site, std::move(row));
        break;
      }
      const double value = body.find("value")->as_number();
      nominal_matrix_[su] = {value};
      delta = core::ProblemDelta::site_capacity(site, value);
      break;
    }
    default:
      AMF_ASSERT(false, "apply_delta on a non-delta op");
  }
  problem_ = std::move(problem_).apply(delta);
  workspace_.apply(delta);
  ++seq_;
}

void Session::rollback_delta_locked(const Item& item) {
  switch (item.req.op) {
    case Op::kAddJob:
      projected_alive_.erase(item.job_id);
      if (item.job_id == next_job_id_ - 1) --next_job_id_;
      workloads_mode_ = item.prev_workloads_mode;
      return;
    case Op::kFinishJob:
      projected_alive_.insert(item.job_id);
      return;
    case Op::kSetCapacity:
      projected_nominal_[static_cast<std::size_t>(
          item.req.body.number_or("site", 0.0))] = item.prev_nominal;
      return;
    default:
      return;  // site_event: validation mutates nothing
  }
}

void Session::remember_ack_locked(const std::string& rid, const Json& ack,
                                  std::uint64_t repl_index) {
  if (config_.dedup_window == 0) return;
  if (!dedup_ack_.emplace(rid, DedupEntry{ack, repl_index}).second)
    return;  // replay of a known rid
  dedup_order_.push_back(rid);
  while (dedup_order_.size() > config_.dedup_window) {
    dedup_ack_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
}

std::string Session::delta_record_payload_locked(const Item& item,
                                                 long long seq) const {
  const Json& body = item.req.body;
  Json rec = Json::object();
  rec.set("t", Json(std::string("delta")));
  rec.set("seq", Json(seq));
  rec.set("op", Json(std::string(to_string(item.req.op))));
  if (!item.rid.empty()) rec.set("rid", Json(item.rid));
  switch (item.req.op) {
    case Op::kAddJob: {
      rec.set("job", Json(item.job_id));
      rec.set("demands", *body.find("demands"));
      const Json* w = body.find("workloads");
      if (w != nullptr) rec.set("workloads", *w);
      rec.set("weight", Json(body.number_or("weight", 1.0)));
      const Json* p = body.find("profile");
      if (p != nullptr) rec.set("profile", *p);
      break;
    }
    case Op::kFinishJob:
      rec.set("job", Json(item.job_id));
      break;
    case Op::kSiteEvent: {
      rec.set("site", Json(body.number_or("site", 0.0)));
      const Json* factors = body.find("capacity_factors");
      if (factors != nullptr)
        rec.set("capacity_factors", *factors);
      else
        rec.set("capacity_factor",
                Json(body.number_or("capacity_factor", 1.0)));
      break;
    }
    case Op::kSetCapacity:
      rec.set("site", Json(body.number_or("site", 0.0)));
      rec.set("value", *body.find("value"));
      break;
    default:
      AMF_ASSERT(false, "journal payload for a non-delta op");
  }
  return rec.dump();
}

void Session::attach_journal(std::unique_ptr<Journal> journal) {
  std::lock_guard<std::mutex> lock(mu_);
  AMF_REQUIRE(queue_.empty() && enqueued_seq_ == seq_,
              "attach_journal requires a quiescent session");
  journal_ = std::move(journal);
}

void Session::attach_replication(ReplSender* repl) {
  std::lock_guard<std::mutex> lock(mu_);
  AMF_REQUIRE(queue_.empty() && enqueued_seq_ == seq_,
              "attach_replication requires a quiescent session");
  repl_ = repl;
}

long long Session::enqueued_seq() {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_seq_;
}

void Session::journal_append_replicated(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ == nullptr) return;
  journal_->append(payload);
  SvcMetrics::get().journal_records.add();
  if (journal_->policy() == FsyncPolicy::kAlways)
    SvcMetrics::get().journal_syncs.add();
}

void Session::compact_journal_replicated(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ == nullptr) return;
  journal_->compact(payload);
  SvcMetrics::get().journal_compactions.add();
}

bool Session::replay_journal_record(const Json& record, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  // Recovery runs before the server accepts traffic, so no task is in
  // flight on the empty queue and the solver state is safe to touch here.
  AMF_ASSERT(queue_.empty(), "journal replay raced live traffic");
  Request req;
  req.op = Op::kPing;
  try {
    req.op = parse_op(record.string_or("op", ""));
  } catch (const SvcError& e) {
    *error = e.what();
    return false;
  }
  if (!is_delta_op(req.op)) {
    *error = "journal delta record carries non-delta op";
    return false;
  }
  // Compared as doubles: a hostile number must not reach an integer cast.
  const double recorded_seq = record.number_or("seq", -1.0);
  if (recorded_seq != static_cast<double>(enqueued_seq_ + 1)) {
    *error = "journal seq gap: expected " + std::to_string(enqueued_seq_ + 1) +
             ", record carries " + Json(recorded_seq).dump();
    return false;
  }
  req.body = record;
  Item item;
  item.req = std::move(req);
  try {
    validate_delta_locked(item.req, &item);
  } catch (const SvcError& e) {
    *error = e.what();
    return false;
  }
  if (item.req.op == Op::kAddJob) {
    const double recorded = record.number_or("job", -1.0);
    if (recorded != static_cast<double>(item.job_id)) {
      rollback_delta_locked(item);
      *error = "journal job id " + Json(recorded).dump() +
               " does not match replayed handle " +
               std::to_string(item.job_id);
      return false;
    }
  }
  ++enqueued_seq_;
  apply_delta(item);
  processed_seq_ = seq_;
  item.rid = record.string_or("rid", "");
  if (!item.rid.empty()) {
    Json ack = Json::object();
    ack.set("seq", Json(enqueued_seq_));
    if (item.req.op == Op::kAddJob) ack.set("job", Json(item.job_id));
    // Replayed records owe no standby confirmation (repl_index 0): on a
    // recovered primary the seeding snapshot covers them, and on a
    // standby the record came *from* the stream.
    remember_ack_locked(item.rid, ack, 0);
  }
  return true;
}

std::string Session::snapshot_record_payload_locked_state() const {
  Json rec = Json::object();
  rec.set("t", Json(std::string("snapshot")));
  rec.set("seq", Json(seq_));
  rec.set("policy", Json(config_.policy));
  rec.set("batch_window_ms", Json(config_.batch_window_ms));
  rec.set("default_budget_ms", Json(config_.default_budget_ms));
  rec.set("snapshot", snapshot_json_locked_state());
  if (!dedup_order_.empty()) rec.set("dedup", dedup_json_locked());
  return rec.dump();
}

void Session::compact_journal_after_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    AMF_REQUIRE(draining_ || stopped_,
                "compact_journal_after_drain needs a drained session");
  }
  if (journal_ == nullptr) return;
  journal_->compact(snapshot_record_payload_locked_state());
  SvcMetrics::get().journal_compactions.add();
}

Json Session::solve_result_json(const Item& item) const {
  Json out = Json::object();
  out.set("seq", Json(last_solve_seq_));
  if (!last_tier_.empty()) out.set("tier", Json(last_tier_));
  if (item.budget_ms > 0.0) out.set("budget_ms", Json(item.budget_ms));
  out.set("allocation", allocation_to_json(last_allocation_, job_ids_));
  return out;
}

void Session::serve_run(std::vector<Item>* run) {
  auto& metrics = SvcMetrics::get();
  const auto start = Clock::now();

  // Admission control, serve-side: shed aged-out and deadline-expired
  // solves with the typed overloaded response before doing any work.
  std::vector<Item> kept;
  kept.reserve(run->size());
  for (Item& item : *run) {
    if (item.req.op != Op::kSolve) {
      kept.push_back(std::move(item));
      continue;
    }
    const double wait = ms_since(item.enqueued, start);
    const bool aged =
        config_.max_queue_age_ms > 0.0 && wait > config_.max_queue_age_ms;
    const bool expired = item.budget_ms > 0.0 && wait >= item.budget_ms;
    if (aged || expired) {
      metrics.rejects.add();
      util::Logger::global()
          .warn("svc.shed")
          .str("session", name_)
          .str("reason", aged ? "queue_age" : "deadline")
          .num("wait_ms", wait)
          .trace(item.trace);
      AMF_SPAN_FLOW_STEP("svc/shed", item.trace);
      item.respond(error_line(
          item.req.id, ErrorCode::kOverloaded,
          aged ? "solve shed: queue wait exceeded max_queue_age_ms"
               : "solve shed: request deadline expired while queued"));
      continue;
    }
    kept.push_back(std::move(item));
  }

  bool solved_this_run = false;
  for (Item& item : kept) {
    if (item.req.op == Op::kSnapshot) {
      Json out = Json::object();
      out.set("snapshot", snapshot_json_locked_state());
      item.respond(ok_line(item.req.id, out));
      continue;
    }
    // Solve. The first solve of the run does the work; the rest share it
    // (the state cannot have changed: runs contain no deltas).
    if (!solved_this_run) {
      if (!broken_.empty()) {
        item.respond(error_line(item.req.id, ErrorCode::kInternal, broken_));
        continue;
      }
      if (seq_ == last_solve_seq_ && has_allocation_ && cacheable_) {
        metrics.cache_hits.add();
        solved_this_run = true;
      } else {
        // The tightest budget across the coalesced solves, each counted
        // from its own enqueue time.
        std::vector<SolveBudget> budgets;
        for (const Item& peer : kept)
          if (peer.req.op == Op::kSolve)
            budgets.push_back({peer.enqueued, peer.budget_ms});
        const util::Deadline deadline = run_deadline(budgets);
        try {
          const auto solve_start = Clock::now();
          {
            AMF_SPAN_FLOW_STEP("svc/allocator", item.trace);
            if (problem_.jobs() == 0) {
              last_allocation_ =
                  core::Allocation(flow::ShareRows{}, base_policy_->name());
            } else {
              const util::ScopedDeadline scoped(deadline);
              last_allocation_ = robust_->allocate(problem_, workspace_);
            }
          }
          const double solve_wall = ms_since(solve_start, Clock::now());
          metrics.stage_solve_ms.observe(solve_wall);
          if (config_.slow_solve_ms > 0.0 &&
              solve_wall > config_.slow_solve_ms) {
            util::Logger::global()
                .warn("svc.slow_solve")
                .str("session", name_)
                .num("solve_ms", solve_wall)
                .num("threshold_ms", config_.slow_solve_ms)
                .num("jobs", problem_.jobs())
                .trace(item.trace);
          }
          metrics.solve_calls.add();
          has_allocation_ = true;
          last_solve_seq_ = seq_;
          cacheable_ = deadline.unlimited();
          last_tier_ = problem_.jobs() == 0
                           ? ""
                           : core::to_string(robust_->fallback_stats().last);
          solved_this_run = true;
        } catch (const std::exception& e) {
          broken_ = std::string("solve failed: ") + e.what();
          item.respond(error_line(item.req.id, ErrorCode::kInternal, broken_));
          continue;
        }
      }
    }
    metrics.solves_served.add();
    metrics.turnaround_ms.observe(ms_since(item.enqueued, Clock::now()));
    AMF_SPAN_FLOW_STEP("svc/serve", item.trace);
    item.respond(ok_line(item.req.id, solve_result_json(item)));
  }
}

void Session::schedule_locked() {
  if (scheduled_ || stopped_) return;
  scheduled_ = true;
  config_.executor->submit([this] { executor_run(); });
}

bool Session::take_parked_slice_locked() {
  if (!parked_) return false;
  const bool cancelled = config_.executor->cancel(*parked_);
  parked_.reset();
  return cancelled;
}

void Session::executor_run() {
  auto& metrics = SvcMetrics::get();
  std::unique_lock<std::mutex> lock(mu_);
  parked_.reset();
  while (!stopped_ && !queue_.empty()) {
    // Accumulation window: instead of a timed cv wait, park the slice on
    // the executor timer and give the pool thread back. scheduled_ stays true
    // across the deferral — the timer continuation owns the session's
    // liveness until it clears the flag.
    if (config_.batch_window_ms > 0.0 && !draining_) {
      const auto until = util::saturating_after_ms(queue_.front().enqueued,
                                                   config_.batch_window_ms);
      const auto now = Clock::now();
      if (now < until) {
        if (window_wait_start_ == Clock::time_point{})
          window_wait_start_ = now;
        const double delay_ms =
            std::chrono::duration<double, std::milli>(until - now).count();
        parked_ = config_.executor->submit_after(
            delay_ms, [this] { executor_run(); });
        return;
      }
    }
    if (window_wait_start_ != Clock::time_point{}) {
      metrics.stage_batch_wait_ms.observe(
          ms_since(window_wait_start_, Clock::now()));
      window_wait_start_ = {};
    }
    process_batch(lock);
    // One batch per slice: requeue behind other runnable sessions so a
    // hot session cannot starve the pool. Draining flushes in place.
    if (!draining_) break;
  }
  if (!stopped_ && !queue_.empty()) {
    lock.unlock();
    config_.executor->submit([this] { executor_run(); });
    return;
  }
  scheduled_ = false;
  idle_cv_.notify_all();
}

void Session::process_batch(std::unique_lock<std::mutex>& lock) {
  auto& metrics = SvcMetrics::get();
  // Drain one batch: deltas (applied in order), then a run of
  // consecutive solve/snapshot requests sharing one allocator call. A
  // strict solve or a snapshot is a barrier — later deltas stay queued
  // so it observes exactly its prefix. Solves marked "latest" float:
  // deltas submitted after them may still join the batch, and they are
  // served at the newer state (reported via seq).
  std::vector<Item> deltas, run;
  bool run_all_latest = true;
  while (!queue_.empty()) {
    Item& head = queue_.front();
    if (is_delta_op(head.req.op)) {
      if (!run.empty() && !run_all_latest) break;
      deltas.push_back(std::move(head));
      queue_.pop_front();
    } else {
      if (head.req.op != Op::kSolve || !head.latest)
        run_all_latest = false;
      run.push_back(std::move(head));
      queue_.pop_front();
    }
  }
  lock.unlock();

  const auto now = Clock::now();
  for (const Item& item : deltas)
    metrics.stage_queue_ms.observe(ms_since(item.enqueued, now));
  for (const Item& item : run)
    metrics.stage_queue_ms.observe(ms_since(item.enqueued, now));
  {
    AMF_SPAN_ARG("svc/batch_drain", "items",
                 deltas.size() + run.size());
    for (const Item& item : deltas) {
      AMF_SPAN_FLOW_STEP("svc/apply_delta", item.trace);
      apply_delta(item);
    }
    if (!run.empty()) serve_run(&run);
  }
  // fsync=batch piggybacks on the batch window: one sync makes every
  // ACK of the drained window durable.
  if (journal_ != nullptr && !deltas.empty() &&
      journal_->policy() == FsyncPolicy::kBatch) {
    journal_->sync();
    metrics.journal_syncs.add();
  }
  metrics.batches.add();
  metrics.batch_size.observe(
      static_cast<double>(deltas.size() + run.size()));

  lock.lock();
  processed_seq_ = seq_;
  // Compaction: when the log has grown past the threshold and every
  // journaled record is covered by the current state (no admitted-but-
  // unapplied deltas), collapse it to one snapshot record. Holding mu_
  // blocks admissions, so no record with seq > seq_ can land in the
  // file mid-rewrite.
  if (journal_ != nullptr && config_.journal_compact_every > 0 &&
      enqueued_seq_ == seq_ &&
      journal_->appends_since_compact() >= config_.journal_compact_every) {
    const std::string payload = snapshot_record_payload_locked_state();
    journal_->compact(payload);
    metrics.journal_compactions.add();
    // Mirror the compaction downstream so the standby's log shrinks
    // too (its state is unchanged by the snapshot — stream order
    // guarantees it already applied exactly this prefix). Fire and
    // forget: compaction never gates a client ACK.
    if (repl_ != nullptr) {
      std::uint64_t index = 0;
      (void)repl_->offer(name_, payload, &index);
    }
  }
}

void Session::drain() {
  std::size_t pending = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!draining_)
      pending = queue_.size();
    draining_ = true;
    // A slice parked on its batch window is taken over and its batch
    // served here at once. A running slice flushes every queued batch
    // once draining_ is set; wait for it, then serve anything admitted
    // after it went idle.
    const bool took_slice = take_parked_slice_locked();
    if (!took_slice) idle_cv_.wait(lock, [this] { return !scheduled_; });
    while (!stopped_ && !queue_.empty()) process_batch(lock);
    if (took_slice) {
      window_wait_start_ = {};
      scheduled_ = false;
      idle_cv_.notify_all();
    }
  }
  util::Logger::global()
      .info("svc.session_drain")
      .str("session", name_)
      .num("pending", pending);
}

Json Session::snapshot_json_locked_state() const {
  // The scalar nominal view: each nominal row's binding minimum.
  std::vector<double> nominal;
  for (const auto& row : nominal_matrix_)
    nominal.push_back(flow::binding_min(row));
  Json out = problem_to_json(problem_, nominal, job_ids_,
                             multi_ ? &nominal_matrix_ : nullptr);
  out.set("session", Json(name_));
  out.set("seq", Json(seq_));
  if (has_allocation_)
    out.set("allocation", allocation_to_json(last_allocation_, job_ids_));
  return out;
}

Json Session::snapshot_json_after_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    AMF_REQUIRE(draining_ || stopped_,
                "snapshot_json_after_drain needs a drained session");
  }
  return snapshot_json_locked_state();
}

Json Session::carried_json_after_drain() {
  Json out = snapshot_json_after_drain();
  out.set("policy", Json(config_.policy));
  out.set("batch_window_ms", Json(config_.batch_window_ms));
  out.set("default_budget_ms", Json(config_.default_budget_ms));
  std::lock_guard<std::mutex> lock(mu_);
  if (!dedup_order_.empty()) out.set("dedup", dedup_json_locked());
  return out;
}

Json Session::dedup_json_locked() const {
  Json out = Json::array();
  for (const std::string& rid : dedup_order_) {
    Json entry = Json::object();
    entry.set("rid", Json(rid));
    entry.set("ack", dedup_ack_.at(rid).ack);
    out.push_back(std::move(entry));
  }
  return out;
}

Json Session::info_json() {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::object();
  out.set("session", Json(name_));
  out.set("queue_depth", Json(static_cast<long long>(queue_.size())));
  out.set("jobs", Json(static_cast<long long>(projected_alive_.size())));
  out.set("enqueued_seq", Json(enqueued_seq_));
  out.set("processed_seq", Json(processed_seq_));
  out.set("draining", Json(draining_));
  out.set("journaled", Json(journal_ != nullptr));
  out.set("dedup_entries", Json(static_cast<long long>(dedup_ack_.size())));
  return out;
}

}  // namespace amf::svc
