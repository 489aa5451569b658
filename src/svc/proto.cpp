#include "svc/proto.hpp"

#include <climits>
#include <cmath>

#include "util/error.hpp"

namespace amf::svc {

Op parse_op(std::string_view name) {
  if (name == "create_session") return Op::kCreateSession;
  if (name == "add_job") return Op::kAddJob;
  if (name == "finish_job") return Op::kFinishJob;
  if (name == "site_event") return Op::kSiteEvent;
  if (name == "set_capacity") return Op::kSetCapacity;
  if (name == "solve") return Op::kSolve;
  if (name == "snapshot") return Op::kSnapshot;
  if (name == "stats") return Op::kStats;
  if (name == "drain") return Op::kDrain;
  if (name == "ping") return Op::kPing;
  if (name == "promote") return Op::kPromote;
  if (name == "evict_session") return Op::kEvictSession;
  throw SvcError(ErrorCode::kUnknownOp,
                 "unknown op \"" + std::string(name) + "\"");
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kCreateSession: return "create_session";
    case Op::kAddJob: return "add_job";
    case Op::kFinishJob: return "finish_job";
    case Op::kSiteEvent: return "site_event";
    case Op::kSetCapacity: return "set_capacity";
    case Op::kSolve: return "solve";
    case Op::kSnapshot: return "snapshot";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
    case Op::kPing: return "ping";
    case Op::kPromote: return "promote";
    case Op::kEvictSession: return "evict_session";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kNoSession: return "no_session";
    case ErrorCode::kSessionExists: return "session_exists";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kNotPrimary: return "not_primary";
    case ErrorCode::kShardUnavailable: return "shard_unavailable";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kRetriesExhausted: return "retries_exhausted";
  }
  return "?";
}

ErrorCode parse_error_code(std::string_view name) {
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "unknown_op") return ErrorCode::kUnknownOp;
  if (name == "no_session") return ErrorCode::kNoSession;
  if (name == "session_exists") return ErrorCode::kSessionExists;
  if (name == "overloaded") return ErrorCode::kOverloaded;
  if (name == "draining") return ErrorCode::kDraining;
  if (name == "not_primary") return ErrorCode::kNotPrimary;
  if (name == "shard_unavailable") return ErrorCode::kShardUnavailable;
  if (name == "timeout") return ErrorCode::kTimeout;
  if (name == "retries_exhausted") return ErrorCode::kRetriesExhausted;
  return ErrorCode::kInternal;
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxLineBytes)
    throw SvcError(ErrorCode::kBadRequest, "request line exceeds 1 MiB");
  Json body;
  try {
    body = Json::parse(line);
  } catch (const util::ContractError& e) {
    throw SvcError(ErrorCode::kBadRequest, e.what());
  }
  if (!body.is_object())
    throw SvcError(ErrorCode::kBadRequest, "request must be a JSON object");
  const Json* v = body.find("v");
  if (v == nullptr || !v->is_number() ||
      v->as_number() != static_cast<double>(kProtocolVersion))
    throw SvcError(ErrorCode::kBadRequest,
                   "missing or unsupported protocol version (expected "
                   "\"v\": " + std::to_string(kProtocolVersion) + ")");
  const Json* op = body.find("op");
  if (op == nullptr || !op->is_string())
    throw SvcError(ErrorCode::kBadRequest, "missing \"op\" string");

  Request req;
  req.op = parse_op(op->as_string());
  const Json* id = body.find("id");
  if (id != nullptr) {
    if (!id->is_number())
      throw SvcError(ErrorCode::kBadRequest, "\"id\" must be a number");
    req.id = id->as_number();
  }
  req.session = body.string_or("session", "");
  req.body = std::move(body);
  return req;
}

namespace {

Json envelope(double id, bool ok) {
  Json out = Json::object();
  out.set("v", Json(kProtocolVersion));
  out.set("id", Json(id));
  out.set("ok", Json(ok));
  return out;
}

}  // namespace

std::string ok_line(double id, const Json& result) {
  Json out = envelope(id, true);
  if (result.is_object())
    for (const auto& [k, v] : result.as_object()) out.set(k, v);
  std::string line = out.dump();
  line += '\n';
  return line;
}

std::string error_line(double id, ErrorCode code,
                       const std::string& message) {
  Json err = Json::object();
  err.set("code", Json(std::string(to_string(code))));
  err.set("message", Json(message));
  Json out = envelope(id, false);
  out.set("error", std::move(err));
  std::string line = out.dump();
  line += '\n';
  return line;
}

std::uint64_t trace_of(const Request& req) {
  const double t = req.body.number_or("trace", 0.0);
  if (!(t > 0.0 && t < 18446744073709551616.0)) return 0;  // (0, 2^64)
  return static_cast<std::uint64_t>(t);
}

bool stream_counter(const Json& msg, std::string_view key, long long* out) {
  const double x = msg.number_or(key, 0.0);
  if (!is_integer_in(x, 0, kMaxExactInteger)) return false;
  *out = static_cast<long long>(x);
  return true;
}

std::vector<double> number_array(const Json& v, int expect,
                                 std::string_view what) {
  if (!v.is_array())
    throw SvcError(ErrorCode::kBadRequest,
                   std::string(what) + " must be an array of numbers");
  const auto& items = v.as_array();
  if (expect >= 0 && static_cast<int>(items.size()) != expect)
    throw SvcError(ErrorCode::kBadRequest,
                   std::string(what) + " must have length " +
                       std::to_string(expect));
  std::vector<double> out;
  out.reserve(items.size());
  for (const Json& item : items) {
    if (!item.is_number() || !std::isfinite(item.as_number()))
      throw SvcError(ErrorCode::kBadRequest,
                     std::string(what) + " entries must be finite numbers");
    out.push_back(item.as_number());
  }
  return out;
}

Json to_json(const std::vector<double>& v) {
  Json out = Json::array();
  for (double x : v) out.push_back(Json(x));
  return out;
}

Json matrix_to_json(const core::Matrix& m) {
  Json out = Json::array();
  for (const auto& row : m) out.push_back(to_json(row));
  return out;
}

core::Matrix matrix_from_json(const Json& v, int rows, int cols,
                              std::string_view what) {
  if (!v.is_array())
    throw SvcError(ErrorCode::kBadRequest,
                   std::string(what) + " must be an array of number arrays");
  const auto& items = v.as_array();
  if (rows >= 0 && static_cast<int>(items.size()) != rows)
    throw SvcError(ErrorCode::kBadRequest,
                   std::string(what) + " must have " + std::to_string(rows) +
                       " rows");
  core::Matrix out;
  out.reserve(items.size());
  for (const Json& row : items) {
    out.push_back(number_array(row, cols, what));
    if (cols < 0 && out.back().size() != out.front().size())
      throw SvcError(ErrorCode::kBadRequest,
                     std::string(what) + " rows must share one width");
  }
  return out;
}

Json allocation_to_json(const core::Allocation& allocation,
                        const std::vector<long long>& job_ids) {
  Json jobs = Json::array();
  for (int j = 0; j < allocation.jobs(); ++j) {
    Json row = Json::object();
    row.set("id", Json(job_ids[static_cast<std::size_t>(j)]));
    row.set("shares", to_json(allocation.shares().dense_row(j)));
    row.set("aggregate", Json(allocation.aggregate(j)));
    jobs.push_back(std::move(row));
  }
  Json out = Json::object();
  out.set("policy", Json(allocation.policy()));
  out.set("jobs", std::move(jobs));
  return out;
}

Json problem_to_json(const core::AllocationProblem& problem,
                     const std::vector<double>& nominal_capacities,
                     const std::vector<long long>& job_ids,
                     const core::Matrix* nominal_matrix) {
  AMF_REQUIRE((nominal_matrix != nullptr) == problem.multi_resource(),
              "nominal matrix must accompany exactly the multi-resource "
              "problems");
  const bool multi = problem.multi_resource();
  Json out = Json::object();
  out.set("v", Json(kProtocolVersion));
  out.set("capacities", to_json(problem.capacities()));
  out.set("nominal", to_json(nominal_capacities));
  if (multi) {
    out.set("resources", Json(static_cast<long long>(problem.resources())));
    out.set("capacity_matrix", matrix_to_json(problem.capacity_matrix()));
    out.set("nominal_matrix", matrix_to_json(*nominal_matrix));
  }
  Json jobs = Json::array();
  for (int j = 0; j < problem.jobs(); ++j) {
    Json row = Json::object();
    row.set("id", Json(job_ids[static_cast<std::size_t>(j)]));
    row.set("demands", to_json(problem.task_demand_row(j)));
    if (problem.has_workloads())
      row.set("workloads", to_json(problem.task_workload_row(j)));
    row.set("weight", Json(problem.weight(j)));
    if (multi)
      row.set("profile",
              to_json(problem.profiles()[static_cast<std::size_t>(j)]));
    jobs.push_back(std::move(row));
  }
  out.set("jobs", std::move(jobs));
  return out;
}

ProblemSnapshot problem_from_json(const Json& v) {
  if (!v.is_object())
    throw SvcError(ErrorCode::kBadRequest, "snapshot must be an object");
  if (v.number_or("v", 0.0) != static_cast<double>(kProtocolVersion))
    throw SvcError(ErrorCode::kBadRequest, "unsupported snapshot version");
  const Json* capacities = v.find("capacities");
  const Json* nominal = v.find("nominal");
  const Json* jobs = v.find("jobs");
  if (capacities == nullptr || nominal == nullptr || jobs == nullptr ||
      !jobs->is_array())
    throw SvcError(ErrorCode::kBadRequest,
                   "snapshot needs capacities, nominal, jobs");

  ProblemSnapshot snap;
  auto caps = number_array(*capacities, -1, "capacities");
  snap.nominal_capacities =
      number_array(*nominal, static_cast<int>(caps.size()), "nominal");
  const int m = static_cast<int>(caps.size());

  // Multi-resource snapshots carry the matrices alongside the scalar
  // (binding-minimum) views; their presence decides which problem shape
  // is rebuilt, so old scalar snapshots load through the exact pre-lift
  // path.
  const Json* cap_matrix = v.find("capacity_matrix");
  const Json* nom_matrix = v.find("nominal_matrix");
  const bool multi = cap_matrix != nullptr;
  int r = -1;
  core::Matrix capacity_matrix;
  if (multi) {
    const double resources = v.number_or("resources", -1.0);
    if (!is_integer_in(resources, 1, INT_MAX))
      throw SvcError(ErrorCode::kBadRequest,
                     "snapshot needs an integer resources >= 1 with a "
                     "capacity matrix");
    r = static_cast<int>(resources);
    capacity_matrix = matrix_from_json(*cap_matrix, m, r, "capacity_matrix");
    if (nom_matrix == nullptr)
      throw SvcError(ErrorCode::kBadRequest,
                     "multi-resource snapshot needs a nominal_matrix");
    snap.nominal_matrix = matrix_from_json(*nom_matrix, m, r,
                                           "nominal_matrix");
  } else if (nom_matrix != nullptr) {
    throw SvcError(ErrorCode::kBadRequest,
                   "nominal_matrix needs a capacity_matrix");
  }

  core::Matrix demands, workloads, profiles;
  std::vector<double> weights;
  bool any_workloads = false;
  for (const Json& row : jobs->as_array()) {
    const Json* id = row.find("id");
    const Json* d = row.find("demands");
    if (id == nullptr || !id->is_number() || d == nullptr)
      throw SvcError(ErrorCode::kBadRequest,
                     "snapshot job needs id and demands");
    const double job_id = id->as_number();
    if (!is_integer_in(job_id, 0, kMaxExactInteger))
      throw SvcError(ErrorCode::kBadRequest,
                     "snapshot job ids must be integers in [0, 2^53]");
    snap.job_ids.push_back(static_cast<long long>(job_id));
    demands.push_back(number_array(*d, m, "demands"));
    const Json* w = row.find("workloads");
    if (w != nullptr) {
      workloads.push_back(number_array(*w, m, "workloads"));
      any_workloads = true;
    } else {
      workloads.emplace_back(static_cast<std::size_t>(m), 0.0);
    }
    weights.push_back(row.number_or("weight", 1.0));
    const Json* profile = row.find("profile");
    if (profile != nullptr && !multi)
      throw SvcError(ErrorCode::kBadRequest,
                     "job profiles need a multi-resource snapshot");
    if (multi)
      profiles.push_back(profile != nullptr
                             ? number_array(*profile, r, "profile")
                             : std::vector<double>(
                                   static_cast<std::size_t>(r), 1.0));
  }
  if (!any_workloads) workloads.clear();
  try {
    if (multi)
      snap.problem = core::AllocationProblem::multi(
          std::move(demands), std::move(capacity_matrix), std::move(profiles),
          std::move(workloads), std::move(weights));
    else
      snap.problem = core::AllocationProblem(
          std::move(demands), std::move(caps), std::move(workloads),
          std::move(weights));
  } catch (const util::ContractError& e) {
    throw SvcError(ErrorCode::kBadRequest,
                   std::string("invalid snapshot problem: ") + e.what());
  }
  return snap;
}

}  // namespace amf::svc
