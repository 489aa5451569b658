// birth.cpp — how sessions come into being: create_session (and
// move_session's target side), --restore, journal recovery and the
// standby stream each build or read a journal birth record and call
// session_from_birth() (see session.hpp), then publish the session.
#include <dirent.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "svc/server.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace amf::svc {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw SvcError(ErrorCode::kBadRequest, message);
}

/// An optional duration override: absent keeps `fallback`; the result
/// must be a finite number >= 0 either way.
double duration_ms(const Json& birth, const char* key, double fallback) {
  const Json* v = birth.find(key);
  const double ms = v == nullptr      ? fallback
                    : v->is_number() ? v->as_number()
                                     : std::nan("");
  if (!(std::isfinite(ms) && ms >= 0.0))
    reject(std::string(key) + " must be finite and >= 0");
  return ms;
}

/// An optional integer field in [lo, hi]; the range check runs before the
/// cast, so no value can overflow it.
long long integer_field(const Json& birth, const char* key, double lo,
                        double hi, long long fallback) {
  const Json* v = birth.find(key);
  if (v == nullptr) return fallback;
  const double x = v->is_number() ? v->as_number() : std::nan("");
  if (!is_integer_in(x, lo, hi))
    reject(std::string(key) + " must be an integer in [" +
           std::to_string(static_cast<long long>(lo)) + ", " +
           std::to_string(static_cast<long long>(hi)) + "]");
  return static_cast<long long>(x);
}

/// The optional rid dedup window: an array of {"rid", "ack"} objects.
std::vector<std::pair<std::string, Json>> dedup_window(const Json& birth) {
  std::vector<std::pair<std::string, Json>> window;
  const Json* entries = birth.find("dedup");
  if (entries == nullptr) return window;
  if (!entries->is_array()) reject("dedup must be an array");
  for (const Json& entry : entries->as_array()) {
    if (!entry.is_object()) reject("dedup entries must be objects");
    std::string rid = entry.string_or("rid", "");
    const Json* ack = entry.find("ack");
    if (rid.empty() || ack == nullptr || !ack->is_object())
      reject("dedup entries need \"rid\" and an \"ack\" object");
    window.emplace_back(std::move(rid), *ack);
  }
  return window;
}

/// Nominal capacities a session may have: at least one site, no entry
/// below 0 (the codec already rejects non-finite entries).
void check_nominal(const ProblemSnapshot& snap) {
  if (snap.nominal_capacities.empty())
    reject("session needs at least one site");
  for (double c : snap.nominal_capacities)
    if (c < 0.0) reject("capacities must be finite and >= 0");
  for (const auto& row : snap.nominal_matrix)
    for (double c : row)
      if (c < 0.0) reject("capacities must be finite and >= 0");
}

/// A fresh session's state: the create record's capacities and no jobs.
ProblemSnapshot fresh_snapshot(const Json& birth) {
  const Json* capacities = birth.find("capacities");
  if (capacities == nullptr) reject("create record lacks capacities");
  const long long r = integer_field(birth, "resources", 1, INT_MAX, 1);
  ProblemSnapshot snap;
  if (r > 1) {
    snap.nominal_matrix = matrix_from_json(*capacities, -1,
                                           static_cast<int>(r), "capacities");
    for (const auto& row : snap.nominal_matrix)
      snap.nominal_capacities.push_back(flow::binding_min(row));
  } else {
    snap.nominal_capacities = number_array(*capacities, -1, "capacities");
  }
  check_nominal(snap);
  snap.problem =
      r > 1 ? core::AllocationProblem::multi({}, snap.nominal_matrix, {})
            : core::AllocationProblem({}, snap.nominal_capacities);
  return snap;
}

/// The birth record of a session carried as a snapshot: a drain-file
/// entry, an evict_session snapshot, or `snapshot` op output. Config and
/// a rid dedup window in `overrides` win over those the snapshot
/// carries; config neither gives falls back to the server defaults in
/// session_from_birth.
Json carried_birth(const Json& carried, const std::string& name,
                   const Json& overrides) {
  if (!carried.is_object()) reject("snapshot must be an object");
  Json rec = Json::object();
  rec.set("t", Json("snapshot"));
  const Json* seq = carried.find("seq");
  rec.set("seq", seq != nullptr ? *seq : Json(0));
  for (const char* key :
       {"policy", "batch_window_ms", "default_budget_ms", "dedup"}) {
    const Json* value = overrides.find(key);
    if (value == nullptr) value = carried.find(key);
    if (value != nullptr) rec.set(key, *value);
  }
  Json snapshot = carried;
  snapshot.set("session", Json(name));
  rec.set("snapshot", std::move(snapshot));
  return rec;
}

/// The create record of a create_session request, with the request's
/// config overrides resolved against `defaults` so that recovery under
/// other defaults rebuilds the same session.
Json create_birth(const Request& req, const SessionConfig& defaults) {
  const Json* capacities = req.body.find("capacities");
  if (capacities == nullptr)
    reject("create_session needs capacities (or a snapshot)");
  Json rec = Json::object();
  rec.set("t", Json("create"));
  rec.set("session", Json(req.session));
  const auto resolved = [&](const char* key, Json fallback) {
    const Json* value = req.body.find(key);
    rec.set(key, value != nullptr ? *value : std::move(fallback));
  };
  resolved("policy", Json(defaults.policy));
  resolved("batch_window_ms", Json(defaults.batch_window_ms));
  resolved("default_budget_ms", Json(defaults.default_budget_ms));
  // Optional resource dimension: a count, or an array of resource names
  // whose length is the count; the record carries the count. R > 1
  // makes `capacities` an m×R matrix.
  if (const Json* resources = req.body.find("resources")) {
    if (!resources->is_array()) {
      rec.set("resources", *resources);
    } else {
      for (const Json& name : resources->as_array())
        if (!name.is_string()) reject("resource names must be strings");
      rec.set("resources", Json(static_cast<long long>(
                               resources->as_array().size())));
    }
  }
  rec.set("capacities", *capacities);
  return rec;
}

}  // namespace

std::unique_ptr<Session> session_from_birth(const Json& birth,
                                            const SessionConfig& defaults) {
  if (!birth.is_object()) reject("birth record must be an object");
  SessionConfig cfg = defaults;
  if (const Json* policy = birth.find("policy")) {
    if (!policy->is_string()) reject("policy must be a string");
    cfg.policy = policy->as_string();
  }
  if (make_policy(cfg.policy) == nullptr)
    reject("unknown policy \"" + cfg.policy + "\" (amf|eamf|psmf)");
  cfg.batch_window_ms =
      duration_ms(birth, "batch_window_ms", cfg.batch_window_ms);
  cfg.default_budget_ms =
      duration_ms(birth, "default_budget_ms", cfg.default_budget_ms);

  const std::string kind = birth.string_or("t", "");
  std::string name;
  long long seq = 0;
  ProblemSnapshot snap;
  if (kind == "create") {
    name = birth.string_or("session", "");
    snap = fresh_snapshot(birth);
  } else if (kind == "snapshot") {
    const Json* carried = birth.find("snapshot");
    if (carried == nullptr) reject("snapshot record lacks a snapshot");
    name = carried->string_or("session", "");
    seq = integer_field(birth, "seq", 0, kMaxExactInteger, 0);
    snap = problem_from_json(*carried);
    check_nominal(snap);
    const std::unordered_set<long long> ids(snap.job_ids.begin(),
                                            snap.job_ids.end());
    if (ids.size() != snap.job_ids.size())
      reject("snapshot has duplicate job ids");
  } else {
    reject("birth record has type \"" + kind +
           "\" (want create or snapshot)");
  }
  if (name.empty()) reject(kind + " record lacks a session name");
  return std::make_unique<Session>(std::move(name), std::move(snap),
                                   std::move(cfg), seq, dedup_window(birth));
}

void Server::add_session(std::unique_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const std::string& name = session->name();
  if (!sessions_.emplace(name, std::move(session)).second)
    throw SvcError(ErrorCode::kSessionExists,
                   "session \"" + name + "\" already exists");
}

void Server::attach_fresh_journal(Session* session,
                                  const std::string& birth_payload) {
  auto journal = std::make_unique<Journal>(journal_path(session->name()),
                                           config_.fsync, /*truncate=*/true);
  journal->append(birth_payload);
  journal->sync();
  SvcMetrics::get().journal_records.add();
  session->attach_journal(std::move(journal));
}

Json Server::handle_create_session(const Request& req) {
  require_session_work(req);
  const Json* carried = req.body.find("snapshot");
  const Json birth = carried != nullptr
                         ? carried_birth(*carried, req.session, req.body)
                         : create_birth(req, config_.session);
  // Shard handoff: a carried birth keeps the source's rid dedup window
  // so in-flight client retries stay exactly-once across the move.
  std::unique_ptr<Session> session =
      session_from_birth(birth, config_.session);
  // The journal's leading record (and the standby's copy): the create
  // record as built, or the carried state as a canonical snapshot record.
  std::string payload;
  if (!config_.journal_dir.empty())
    payload = carried != nullptr
                  ? session->snapshot_record_payload_locked_state()
                  : birth.dump();

  // Publish atomically: the name check, journal creation, and map insert
  // must not interleave with a racing create of the same name — the
  // journal open truncates, so a loser must never touch a live log.
  std::uint64_t birth_index = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.count(req.session) != 0)
      throw SvcError(ErrorCode::kSessionExists,
                     "session \"" + req.session + "\" already exists");
    if (!config_.journal_dir.empty())
      attach_fresh_journal(session.get(), payload);
    Session* raw = session.get();
    sessions_.emplace(req.session, std::move(session));
    // Replicate the birth before releasing the lock: deltas for this
    // session can only follow its create ACK, so offering here keeps
    // the stream ordered birth-before-deltas.
    if (repl_sender_ != nullptr) {
      raw->attach_replication(repl_sender_.get());
      (void)repl_sender_->offer(req.session, payload, &birth_index);
    }
  }
  // repl-ack mode: the create ACK owes the same guarantee a delta ACK
  // does — the standby has the session.
  if (repl_sender_ != nullptr && repl_sender_->ack_mode() &&
      birth_index != 0) {
    const auto wait =
        repl_sender_->wait_acked(birth_index, config_.repl_ack_timeout_ms);
    if (wait != ReplSender::WaitResult::kAcked)
      throw SvcError(wait == ReplSender::WaitResult::kFenced
                         ? ErrorCode::kNotPrimary
                         : ErrorCode::kInternal,
                     "standby did not confirm the session birth (the "
                     "session exists locally; retry is a session_exists)");
  }
  // session_from_birth accepted the record, so its arrays are well-formed.
  const Json& state = carried != nullptr ? *birth.find("snapshot") : birth;
  const Json* jobs = state.find("jobs");
  Json out = Json::object();
  out.set("session", Json(req.session));
  out.set("sites", Json(static_cast<long long>(
                       state.find("capacities")->as_array().size())));
  out.set("jobs", Json(static_cast<long long>(
                      jobs != nullptr ? jobs->as_array().size() : 0)));
  return out;
}

void Server::restore_from_file(const std::string& path) {
  AMF_REQUIRE(!started_, "restore_from_file must run before start()");
  std::ifstream in(path);
  AMF_REQUIRE(in.good(), "cannot open restore file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  Json root;
  try {
    root = Json::parse(text.str());
  } catch (const std::exception& e) {
    throw util::ContractError("restore file " + path +
                              " is not valid JSON: " + e.what());
  }
  AMF_REQUIRE(root.is_object() &&
                  root.number_or("v", 0.0) ==
                      static_cast<double>(kProtocolVersion),
              "restore file " + path + " is not a v" +
                  std::to_string(kProtocolVersion) + " snapshot");
  const Json* sessions = root.find("sessions");
  AMF_REQUIRE(sessions != nullptr && sessions->is_array(),
              "restore file " + path + " has no sessions array");
  std::size_t index = 0;
  for (const Json& entry : sessions->as_array()) {
    const std::string name = entry.string_or("session", "");
    AMF_REQUIRE(!name.empty(), "restore file " + path + ": sessions[" +
                                   std::to_string(index) +
                                   "] lacks a session name");
    try {
      auto session = session_from_birth(carried_birth(entry, name, Json()),
                                        config_.session);
      if (!config_.journal_dir.empty())
        attach_fresh_journal(session.get(),
                             session->snapshot_record_payload_locked_state());
      add_session(std::move(session));
    } catch (const SvcError& e) {
      // Re-throw with the file and entry named: a corrupt snapshot must
      // fail the whole restore loudly, not serve a partial session set.
      throw util::ContractError("restore file " + path + ": session \"" +
                                name + "\": " + e.what());
    }
    ++index;
  }
}

RecoveryReport Server::recover_from_journal() {
  AMF_REQUIRE(!started_, "recover_from_journal must run before start()");
  AMF_REQUIRE(!config_.journal_dir.empty(),
              "recover_from_journal needs journal_dir");
  RecoveryReport report;

  std::vector<std::string> files;
  DIR* dir = ::opendir(config_.journal_dir.c_str());
  AMF_REQUIRE(dir != nullptr,
              "cannot open journal dir " + config_.journal_dir);
  while (dirent* ent = ::readdir(dir)) {
    const std::string file = ent->d_name;
    if (file.size() > 4 && file.compare(file.size() - 4, 4, ".wal") == 0)
      files.push_back(file);
  }
  ::closedir(dir);
  std::sort(files.begin(), files.end());

  for (const std::string& file : files) {
    const std::string path = config_.journal_dir + "/" + file;
    JournalReplay replay = Journal::read_all(path);
    if (replay.truncated) {
      report.warnings.push_back(replay.warning);
      Journal::truncate_to(path, replay.valid_bytes);
    }
    if (replay.records.empty()) continue;  // fresh or fully-torn log

    // The leading record is the session's birth: either the create
    // record or a compaction/restore snapshot.
    std::unique_ptr<Session> session;
    try {
      session = session_from_birth(
          Json::parse(replay.records.front().payload), config_.session);
    } catch (const std::exception& e) {
      report.warnings.push_back(path + ": birth record rejected (" +
                                e.what() + "); skipping this journal");
      continue;
    }
    const std::string name = session->name();

    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (sessions_.count(name) != 0) {
        report.warnings.push_back(
            path + ": session \"" + name +
            "\" already restored from the snapshot file; skipping its "
            "journal");
        continue;
      }
    }

    // Replay the delta suffix through the live validate/apply path. A
    // record the state rejects ends the replay there — everything after
    // it depended on state that was never reached — and the log is
    // truncated to the applied prefix.
    for (std::size_t i = 1; i < replay.records.size(); ++i) {
      std::string error;
      Json record;
      try {
        record = Json::parse(replay.records[i].payload);
      } catch (const std::exception& e) {
        error = std::string("unreadable record (") + e.what() + ")";
      }
      if (error.empty()) session->replay_journal_record(record, &error);
      if (!error.empty()) {
        report.warnings.push_back(path + ": record " + std::to_string(i) +
                                  ": " + error +
                                  "; truncating the journal there");
        Journal::truncate_to(path, replay.offsets[i]);
        break;
      }
      ++report.deltas;
    }

    session->attach_journal(
        std::make_unique<Journal>(path, config_.fsync));
    add_session(std::move(session));
    ++report.sessions;
  }
  // Surface silent tail loss on /metrics, not only in the report.
  SvcMetrics::get().journal_replay_warnings.add(
      static_cast<long long>(report.warnings.size()));
  for (const std::string& warning : report.warnings)
    util::Logger::global().warn("svc.journal_recovery").str("warning",
                                                            warning);
  util::Logger::global()
      .info("svc.journal_recovered")
      .num("sessions", report.sessions)
      .num("deltas", report.deltas)
      .num("warnings", report.warnings.size());
  return report;
}

bool Server::repl_apply_record(const std::string& session_name,
                               const Json& record, std::string* error) {
  const std::string kind = record.string_or("t", "");
  try {
    if (kind == "create" || kind == "snapshot") {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(session_name);
      if (it != sessions_.end()) {
        if (kind == "create")
          return true;  // duplicate resend of a birth we already applied
        if (static_cast<double>(it->second->enqueued_seq()) ==
            record.number_or("seq", -1.0)) {
          // Pure compaction: our state already IS this snapshot (stream
          // order guarantees the prefix matched); just shrink the log.
          it->second->compact_journal_replicated(record.dump());
          return true;
        }
      }
      auto session = session_from_birth(record, config_.session);
      if (session->name() != session_name) {
        *error = "birth names session \"" + session->name() +
                 "\", stream says \"" + session_name + "\"";
        return false;
      }
      // Re-seed (e.g. the primary restarted and streams a fresh
      // snapshot): replace our copy wholesale.
      if (it != sessions_.end()) sessions_.erase(it);
      if (!config_.journal_dir.empty())
        attach_fresh_journal(session.get(), record.dump());
      sessions_.emplace(session_name, std::move(session));
      return true;
    }
    if (kind == "delta") {
      Session* session = nullptr;
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        auto it = sessions_.find(session_name);
        if (it == sessions_.end()) {
          *error = "delta for unknown session \"" + session_name + "\"";
          return false;
        }
        session = it->second.get();
      }
      if (record.number_or("seq", -1.0) <=
          static_cast<double>(session->enqueued_seq()))
        return true;  // duplicate resend after a reconnect
      if (!session->replay_journal_record(record, error)) return false;
      session->journal_append_replicated(record.dump());
      return true;
    }
    *error = "unknown record type \"" + kind + "\"";
    return false;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

}  // namespace amf::svc
