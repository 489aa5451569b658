// svc_test_executor.hpp — the executor standalone test sessions run on,
// and the birth of such a session.
//
// A svc::Session only runs as a task on a SvcExecutor. Servers own
// theirs; tests that drive a Session directly share one function-static
// pool, which outlives every session a test creates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "svc/executor.hpp"
#include "svc/session.hpp"

namespace amf::svc {

/// Default session config bound to the shared test executor.
inline SessionConfig test_session_config() {
  static SvcExecutor pool(2);
  SessionConfig cfg;
  cfg.executor = &pool;
  return cfg;
}

/// A fresh session born from a create record, as create_session births
/// one: scalar capacities (one per site), or an m×R capacity matrix for a
/// multi-resource session.
inline std::unique_ptr<Session> fresh_session(
    const std::string& name, const std::vector<double>& capacities,
    const SessionConfig& cfg = test_session_config()) {
  Json birth = Json::object();
  birth.set("t", Json("create"));
  birth.set("session", Json(name));
  birth.set("capacities", to_json(capacities));
  return session_from_birth(birth, cfg);
}

inline std::unique_ptr<Session> fresh_session(
    const std::string& name, const core::Matrix& capacities,
    const SessionConfig& cfg = test_session_config()) {
  Json birth = Json::object();
  birth.set("t", Json("create"));
  birth.set("session", Json(name));
  birth.set("resources",
            Json(static_cast<long long>(capacities.front().size())));
  birth.set("capacities", matrix_to_json(capacities));
  return session_from_birth(birth, cfg);
}

}  // namespace amf::svc
