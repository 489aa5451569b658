// svc_test_executor.hpp — the executor standalone test sessions run on.
//
// A svc::Session only runs as a task on a SvcExecutor. Servers own
// theirs; tests that drive a Session directly share one function-static
// pool, which outlives every session a test creates.
#pragma once

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

}  // namespace amf::svc
