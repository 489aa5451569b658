// svc_test.cpp — allocation service: framing/parsing, session batching
// and coalescing equivalence, admission control, deadline propagation,
// snapshot round-trips, and the server/client pair end to end.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/amf.hpp"
#include "core/robust.hpp"
#include "util/error.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/net.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc_test_executor.hpp"

namespace amf::svc {
namespace {

// ---------------------------------------------------------------------
// JSON codec

TEST(SvcJson, ParsesAndDumpsRoundTrip) {
  const std::string text =
      R"({"a":1.5,"b":[true,false,null],"c":{"nested":"s\"t\n"},"d":-0.0625})";
  Json v = Json::parse(text);
  EXPECT_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_TRUE(v.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(v.find("b")->as_array()[2].is_null());
  EXPECT_EQ(v.find("c")->find("nested")->as_string(), "s\"t\n");
  // dump -> parse -> dump is a fixed point (doubles use %.17g).
  const std::string once = v.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(SvcJson, RoundTripsDoublesBitExactly) {
  const double values[] = {1.0 / 3.0, 1e-308, 123456789.123456789, -0.1};
  for (double x : values) {
    Json v(x);
    EXPECT_EQ(Json::parse(v.dump()).as_number(), x);
  }
}

TEST(SvcJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), util::ContractError);
  EXPECT_THROW(Json::parse("{"), util::ContractError);
  EXPECT_THROW(Json::parse("{\"a\":}"), util::ContractError);
  EXPECT_THROW(Json::parse("[1,2,]"), util::ContractError);
  EXPECT_THROW(Json::parse("nul"), util::ContractError);
  EXPECT_THROW(Json::parse("{} trailing"), util::ContractError);
  std::string deep(100, '[');
  EXPECT_THROW(Json::parse(deep), util::ContractError);
}

// ---------------------------------------------------------------------
// Protocol framing

TEST(SvcProto, ParsesValidRequest) {
  Request req = parse_request(
      R"({"v":1,"id":7,"op":"add_job","session":"s","demands":[1,2]})");
  EXPECT_EQ(req.op, Op::kAddJob);
  EXPECT_EQ(req.id, 7.0);
  EXPECT_EQ(req.session, "s");
  EXPECT_NE(req.body.find("demands"), nullptr);
}

TEST(SvcProto, RejectsBadFraming) {
  auto code_of = [](const std::string& line) {
    try {
      parse_request(line);
    } catch (const SvcError& e) {
      return e.code();
    }
    return ErrorCode::kInternal;
  };
  EXPECT_EQ(code_of("not json"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of("[1,2]"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"op":"solve"})"), ErrorCode::kBadRequest);  // no v
  EXPECT_EQ(code_of(R"({"v":2,"op":"solve"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"v":1})"), ErrorCode::kBadRequest);  // no op
  EXPECT_EQ(code_of(R"({"v":1,"op":"warp"})"), ErrorCode::kUnknownOp);
  EXPECT_EQ(code_of(R"({"v":1,"op":"solve","id":"x"})"),
            ErrorCode::kBadRequest);
}

TEST(SvcProto, ResponseLinesCarryEnvelope) {
  Json result = Json::object();
  result.set("x", Json(1.0));
  const std::string ok = ok_line(3.0, result);
  EXPECT_EQ(ok.back(), '\n');
  Json parsed = Json::parse(std::string(ok.data(), ok.size() - 1));
  EXPECT_TRUE(parsed.bool_or("ok", false));
  EXPECT_EQ(parsed.number_or("id", -1.0), 3.0);
  EXPECT_EQ(parsed.number_or("x", -1.0), 1.0);

  const std::string err = error_line(4.0, ErrorCode::kOverloaded, "full");
  Json perr = Json::parse(std::string(err.data(), err.size() - 1));
  EXPECT_FALSE(perr.bool_or("ok", true));
  EXPECT_EQ(perr.find("error")->string_or("code", ""), "overloaded");
  EXPECT_EQ(parse_error_code("overloaded"), ErrorCode::kOverloaded);
}

TEST(SvcProto, ProblemSnapshotRoundTrips) {
  core::AllocationProblem problem({{3, 1}, {0, 2}}, {10, 8}, {{6, 2}, {0, 4}},
                                  {1.0, 2.5});
  std::vector<double> nominal{12, 8};
  std::vector<long long> ids{5, 9};
  Json encoded = problem_to_json(problem, nominal, ids);
  ProblemSnapshot snap = problem_from_json(Json::parse(encoded.dump()));
  EXPECT_EQ(snap.problem.jobs(), 2);
  EXPECT_EQ(snap.problem.sites(), 2);
  EXPECT_EQ(snap.job_ids, ids);
  EXPECT_EQ(snap.nominal_capacities, nominal);
  EXPECT_EQ(snap.problem.demand(0, 0), 3.0);
  EXPECT_EQ(snap.problem.workload(1, 1), 4.0);
  EXPECT_EQ(snap.problem.weight(1), 2.5);
  EXPECT_EQ(problem_to_json(snap.problem, snap.nominal_capacities,
                            snap.job_ids)
                .dump(),
            encoded.dump());
}

// ---------------------------------------------------------------------
// Session helpers

/// Collects responses from a Session, keyed by request id.
class Collector {
 public:
  Session::Responder responder() {
    return [this](std::string line) {
      Json parsed = Json::parse(
          std::string(line.data(), line.size() - 1));  // strip '\n'
      std::lock_guard<std::mutex> lock(mu_);
      responses_.push_back(std::move(parsed));
      cv_.notify_all();
    };
  }

  /// Blocks until the response with `id` arrives.
  Json wait(double id) {
    std::unique_lock<std::mutex> lock(mu_);
    Json found;
    const bool got = cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      for (const Json& r : responses_)
        if (r.number_or("id", -1.0) == id) {
          found = r;
          return true;
        }
      return false;
    });
    EXPECT_TRUE(got) << "no response for id " << id;
    return found;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Json> responses_;
};

Request make_request(double id, Op op, Json body = Json::object()) {
  Request req;
  req.id = id;
  req.op = op;
  req.body = std::move(body);
  return req;
}

Json add_job_body(const std::vector<double>& demands, double weight = 1.0) {
  Json body = Json::object();
  body.set("demands", to_json(demands));
  body.set("weight", Json(weight));
  return body;
}

// ---------------------------------------------------------------------
// Coalescing equivalence: a batched session must serve every strict
// solve bit-identically to a stateless solver run at that request's
// exact delta prefix.

TEST(SvcSession, CoalescedSolvesAreBitIdenticalToStatelessReference) {
  const std::vector<double> capacities{100, 80, 60};
  SessionConfig cfg = test_session_config();
  cfg.batch_window_ms = 40;  // force heavy coalescing
  auto owned = fresh_session("s", capacities, cfg);
  Session& session = *owned;
  Collector collector;

  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> demand(0.0, 50.0);

  // Reference state, evolved delta by delta exactly as submitted.
  core::AllocationProblem reference({}, capacities);
  std::vector<long long> ref_ids;
  long long ref_next_id = 0;
  core::AmfAllocator amf;
  core::RobustAllocator robust(amf);

  // Solve id -> reference allocation JSON at that submission point.
  std::vector<std::pair<double, std::string>> expected;
  double id = 0.0;

  auto submit_add = [&] {
    std::vector<double> d(capacities.size());
    for (double& x : d) x = demand(rng);
    session.submit(make_request(++id, Op::kAddJob, add_job_body(d)),
                   collector.responder());
    reference = std::move(reference).apply(
        core::ProblemDelta::job_arrived(d, {}, 1.0));
    ref_ids.push_back(ref_next_id++);
  };
  auto submit_finish = [&](std::size_t row) {
    Json body = Json::object();
    body.set("job", Json(ref_ids[row]));
    session.submit(make_request(++id, Op::kFinishJob, std::move(body)),
                   collector.responder());
    reference = std::move(reference).apply(
        core::ProblemDelta::job_departed(static_cast<int>(row)));
    ref_ids.erase(ref_ids.begin() + static_cast<std::ptrdiff_t>(row));
  };
  auto submit_site_event = [&](int site, double factor) {
    Json body = Json::object();
    body.set("site", Json(static_cast<long long>(site)));
    body.set("capacity_factor", Json(factor));
    session.submit(make_request(++id, Op::kSiteEvent, std::move(body)),
                   collector.responder());
    reference = std::move(reference).apply(core::ProblemDelta::site_capacity(
        site, capacities[static_cast<std::size_t>(site)] * factor));
  };
  auto submit_solve = [&] {
    session.submit(make_request(++id, Op::kSolve), collector.responder());
    const core::Allocation ref_alloc = robust.allocate(reference);
    expected.emplace_back(id,
                          allocation_to_json(ref_alloc, ref_ids).dump());
  };

  // A burst the 40 ms window will coalesce into a handful of batches.
  for (int i = 0; i < 8; ++i) submit_add();
  submit_solve();
  for (int i = 0; i < 4; ++i) submit_add();
  submit_finish(2);
  submit_solve();
  submit_site_event(1, 0.5);
  submit_solve();
  submit_finish(0);
  submit_site_event(1, 1.0);
  for (int i = 0; i < 3; ++i) submit_add();
  submit_solve();
  submit_solve();  // unchanged state: cache-served, still identical

  for (const auto& [solve_id, want] : expected) {
    Json response = collector.wait(solve_id);
    ASSERT_TRUE(response.bool_or("ok", false))
        << "solve " << solve_id << ": " << response.dump();
    const Json* allocation = response.find("allocation");
    ASSERT_NE(allocation, nullptr);
    EXPECT_EQ(allocation->dump(), want) << "solve id " << solve_id;
  }
  session.drain();

  // Coalescing actually happened: fewer allocator calls than solves.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_GT(snap.counter("amf_svc_solves_served_total"),
            snap.counter("amf_svc_solve_calls_total"));
}

// An unbatched session (window 0) serves identically too — the window
// only trades latency for amortization, never results.
TEST(SvcSession, UnbatchedSolveMatchesReference) {
  const std::vector<double> capacities{50, 50};
  auto owned = fresh_session("s", capacities);
  Session& session = *owned;
  Collector collector;
  session.submit(make_request(1, Op::kAddJob, add_job_body({30, 10})),
                 collector.responder());
  session.submit(make_request(2, Op::kAddJob, add_job_body({40, 40})),
                 collector.responder());
  session.submit(make_request(3, Op::kSolve), collector.responder());
  Json response = collector.wait(3);
  ASSERT_TRUE(response.bool_or("ok", false));

  core::AllocationProblem reference({{30, 10}, {40, 40}}, capacities);
  core::AmfAllocator amf;
  core::RobustAllocator robust(amf);
  EXPECT_EQ(response.find("allocation")->dump(),
            allocation_to_json(robust.allocate(reference), {0, 1}).dump());
  session.drain();
}

// ---------------------------------------------------------------------
// Admission control

TEST(SvcSession, ShedsBeyondQueueDepthWithTypedOverloaded) {
  SessionConfig cfg = test_session_config();
  cfg.batch_window_ms = 500;  // hold the queue closed while we flood it
  cfg.max_queue_depth = 4;
  auto owned = fresh_session("s", std::vector<double>{10, 10}, cfg);
  Session& session = *owned;
  Collector collector;

  session.submit(make_request(1, Op::kAddJob, add_job_body({5, 5})),
                 collector.responder());
  double id = 1;
  int overloaded = 0, accepted = 0;
  for (int i = 0; i < 12; ++i)
    session.submit(make_request(++id, Op::kSolve), collector.responder());
  // Drain serves everything still queued.
  session.drain();
  for (double check = 2; check <= id; ++check) {
    Json response = collector.wait(check);
    if (response.bool_or("ok", false)) {
      ++accepted;
    } else {
      EXPECT_EQ(response.find("error")->string_or("code", ""), "overloaded");
      ++overloaded;
    }
  }
  EXPECT_EQ(accepted + overloaded, 12);
  EXPECT_EQ(accepted, 3);  // depth 4 minus the queued delta
  EXPECT_GT(overloaded, 0);
}

TEST(SvcSession, RejectsInvalidDeltasAgainstProjectedState) {
  auto owned = fresh_session("s", std::vector<double>{10, 10});
  Session& session = *owned;
  Collector collector;
  // Wrong demand arity.
  session.submit(make_request(1, Op::kAddJob, add_job_body({1, 2, 3})),
                 collector.responder());
  EXPECT_FALSE(collector.wait(1).bool_or("ok", true));
  // Unknown job handle.
  Json body = Json::object();
  body.set("job", Json(static_cast<long long>(42)));
  session.submit(make_request(2, Op::kFinishJob, std::move(body)),
                 collector.responder());
  Json response = collector.wait(2);
  EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_request");
  // Double-finish against the *projected* state: admit once, reject the
  // second even though neither has been applied yet.
  session.submit(make_request(3, Op::kAddJob, add_job_body({1, 2})),
                 collector.responder());
  const long long job =
      static_cast<long long>(collector.wait(3).number_or("job", -1.0));
  ASSERT_GE(job, 0);
  Json finish1 = Json::object();
  finish1.set("job", Json(job));
  Json finish2 = finish1;
  session.submit(make_request(4, Op::kFinishJob, std::move(finish1)),
                 collector.responder());
  session.submit(make_request(5, Op::kFinishJob, std::move(finish2)),
                 collector.responder());
  EXPECT_TRUE(collector.wait(4).bool_or("ok", false));
  EXPECT_FALSE(collector.wait(5).bool_or("ok", true));
  session.drain();
}

// ---------------------------------------------------------------------
// Deadline propagation

TEST(SvcSession, SolveExpiredInQueueIsShedOverloaded) {
  SessionConfig cfg = test_session_config();
  cfg.batch_window_ms = 120;  // worker holds the batch longer than...
  auto owned = fresh_session("s", std::vector<double>{10, 10}, cfg);
  Session& session = *owned;
  Collector collector;
  session.submit(make_request(1, Op::kAddJob, add_job_body({5, 5})),
                 collector.responder());
  Json body = Json::object();
  body.set("budget_ms", Json(5.0));  // ...this deadline
  session.submit(make_request(2, Op::kSolve, std::move(body)),
                 collector.responder());
  Json response = collector.wait(2);
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.find("error")->string_or("code", ""), "overloaded");
  session.drain();
}

TEST(SvcSession, BudgetedSolveStillServesUnderTightDeadline) {
  auto owned = fresh_session("s", std::vector<double>(8, 100.0));
  Session& session = *owned;
  Collector collector;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> demand(0.0, 40.0);
  double id = 0;
  for (int j = 0; j < 40; ++j) {
    std::vector<double> d(8);
    for (double& x : d) x = demand(rng);
    session.submit(make_request(++id, Op::kAddJob, add_job_body(d)),
                   collector.responder());
  }
  Json body = Json::object();
  body.set("budget_ms", Json(2000.0));
  session.submit(make_request(++id, Op::kSolve, std::move(body)),
                 collector.responder());
  Json response = collector.wait(id);
  // A generous budget must not change the answer: graceful degradation
  // only engages when the deadline actually bites.
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  EXPECT_EQ(response.string_or("tier", ""), "primary");
  EXPECT_EQ(response.number_or("budget_ms", 0.0), 2000.0);
  session.drain();
}

TEST(SvcSession, HugeBudgetIsServedByPrimaryUnbudgeted) {
  // A finite budget past the clock's range (~9.2e12 ms) must act as no
  // budget, not overflow into an already-expired deadline.
  auto owned = fresh_session("s", std::vector<double>{10, 10});
  Session& session = *owned;
  Collector collector;
  session.submit(make_request(1, Op::kAddJob, add_job_body({8, 2})),
                 collector.responder());
  session.submit(make_request(2, Op::kAddJob, add_job_body({2, 8})),
                 collector.responder());
  std::vector<std::string> allocations;
  double id = 2;
  for (double budget : {1e13, 1e300, 0.0}) {
    Json body = Json::object();
    if (budget > 0.0) body.set("budget_ms", Json(budget));
    session.submit(make_request(++id, Op::kSolve, std::move(body)),
                   collector.responder());
    Json response = collector.wait(id);
    ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
    EXPECT_EQ(response.string_or("tier", ""), "primary") << budget;
    allocations.push_back(response.find("allocation")->dump());
  }
  EXPECT_EQ(allocations[0], allocations[2]);
  EXPECT_EQ(allocations[1], allocations[2]);
  session.drain();
}

TEST(SvcSession, OutOfRangeNumbersNeverReachAnIntegerCast) {
  auto owned = fresh_session("s", std::vector<double>{10, 10});
  Session& session = *owned;
  Collector collector;
  session.submit(make_request(1, Op::kAddJob, add_job_body({5, 5})),
                 collector.responder());
  ASSERT_EQ(collector.wait(1).number_or("job", -1.0), 0.0);
  // Job handles are integers in [0, 2^53]: 0.5 once truncated to job 0.
  double id = 1;
  for (double job : {0.5, -1.0, 1e300}) {
    Json body = Json::object();
    body.set("job", Json(job));
    session.submit(make_request(++id, Op::kFinishJob, std::move(body)),
                   collector.responder());
    Json response = collector.wait(id);
    EXPECT_FALSE(response.bool_or("ok", true)) << job;
    EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_request");
  }
  // A trace id past 2^64 is no trace; the solve is still served.
  Json traced = Json::object();
  traced.set("trace", Json(1e300));
  session.submit(make_request(++id, Op::kSolve, std::move(traced)),
                 collector.responder());
  Json solved = collector.wait(id);
  ASSERT_TRUE(solved.bool_or("ok", false)) << solved.dump();
  EXPECT_EQ(solved.find("allocation")->find("jobs")->as_array().size(), 1u);
  session.drain();
  // Snapshot job ids obey the same range.
  EXPECT_THROW(
      session_from_birth(
          Json::parse(R"({"t":"snapshot","snapshot":{"v":1,"session":"x",)"
                      R"("capacities":[1],"nominal":[1],)"
                      R"("jobs":[{"id":1e300,"demands":[1]}]}})"),
          test_session_config()),
      SvcError);
}

// ---------------------------------------------------------------------
// Snapshot round-trip through a restored session

TEST(SvcSession, SnapshotRestoreServesIdenticalAllocation) {
  auto owned = fresh_session("orig", std::vector<double>{60, 40});
  Session& session = *owned;
  Collector collector;
  session.submit(make_request(1, Op::kAddJob, add_job_body({50, 0}, 2.0)),
                 collector.responder());
  session.submit(make_request(2, Op::kAddJob, add_job_body({30, 30})),
                 collector.responder());
  session.submit(make_request(3, Op::kSolve), collector.responder());
  Json solved = collector.wait(3);
  ASSERT_TRUE(solved.bool_or("ok", false));
  session.submit(make_request(4, Op::kSnapshot), collector.responder());
  Json snapped = collector.wait(4);
  ASSERT_TRUE(snapped.bool_or("ok", false));
  session.drain();

  // Rehydrate from the wire-format snapshot, born under a new name from
  // a snapshot birth record, and solve again.
  Json copy = *snapped.find("snapshot");
  copy.set("session", Json("copy"));
  Json birth = Json::object();
  birth.set("t", Json("snapshot"));
  birth.set("snapshot", std::move(copy));
  auto owned_restored = session_from_birth(birth, test_session_config());
  Session& restored = *owned_restored;
  Collector collector2;
  restored.submit(make_request(1, Op::kSolve), collector2.responder());
  Json resolved = collector2.wait(1);
  ASSERT_TRUE(resolved.bool_or("ok", false));
  EXPECT_EQ(resolved.find("allocation")->dump(),
            solved.find("allocation")->dump());

  // The restored session keeps the id space: new jobs get fresh handles.
  restored.submit(make_request(2, Op::kAddJob, add_job_body({10, 10})),
                  collector2.responder());
  EXPECT_EQ(collector2.wait(2).number_or("job", -1.0), 2.0);
  restored.drain();
}

// ---------------------------------------------------------------------
// Unix listener readiness

// A client that sees the socket file must be able to connect at once: the
// listener is bound and listening before its file appears under `path`.
// One watcher thread spins on stat() for each round's fresh path and
// connects the moment the file is a socket. A listener that binds `path`
// before it listens is refused a few times in 5000 rounds (about 1 s).
TEST(SvcNet, UnixSocketFileAppearsOnlyOnceListening) {
  std::string dir = ::testing::TempDir() + "amf_listen_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  constexpr int kRounds = 5000;
  auto path_of = [&](int i) {
    return dir + "/l" + std::to_string(i) + ".sock";
  };
  std::atomic<int> rounds_done{0};
  std::atomic<int> refused{0};
  std::atomic<int> other_failures{0};
  std::thread watcher([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int i = 0; i < kRounds; ++i) {
      const std::string path = path_of(i);
      struct stat st {};
      while (::stat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) {
        if (std::chrono::steady_clock::now() > give_up) {
          ++other_failures;
          rounds_done.store(kRounds);
          return;
        }
      }
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0)
        ++(errno == ECONNREFUSED ? refused : other_failures);
      ::close(fd);
      rounds_done.store(i + 1);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    Socket listener = listen_unix(path_of(i));
    // Hold the listener until the watcher has connected to it.
    while (rounds_done.load() <= i) std::this_thread::yield();
    ::unlink(path_of(i).c_str());
  }
  watcher.join();
  ::rmdir(dir.c_str());
  EXPECT_EQ(refused.load(), 0);
  EXPECT_EQ(other_failures.load(), 0);
}

// ---------------------------------------------------------------------
// Server + client end to end (loopback TCP)

TEST(SvcServer, EndToEndSessionLifecycle) {
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());

  EXPECT_TRUE(client.ping());
  client.create_session("jobs", {100, 100});
  // Duplicate names are typed errors.
  try {
    client.create_session("jobs", {1});
    FAIL() << "duplicate create_session must throw";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSessionExists);
  }
  // Unknown sessions too.
  try {
    client.solve("ghost");
    FAIL() << "unknown session must throw";
  } catch (const SvcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoSession);
  }

  const long long a = client.add_job("jobs", {80, 0});
  const long long b = client.add_job("jobs", {60, 60});
  EXPECT_NE(a, b);
  Json solved = client.solve("jobs");
  EXPECT_EQ(solved.find("allocation")->find("jobs")->as_array().size(), 2u);
  client.finish_job("jobs", a);
  client.site_event("jobs", 1, 0.5);
  Json resolved = client.solve("jobs");
  EXPECT_EQ(resolved.find("allocation")->find("jobs")->as_array().size(), 1u);
  EXPECT_GT(resolved.number_or("seq", 0.0), solved.number_or("seq", -1.0));

  Json stats = client.stats("prometheus");
  EXPECT_NE(stats.string_or("text", "").find("amf_svc_requests_total_solve"),
            std::string::npos);
  EXPECT_EQ(stats.find("sessions")->as_array().size(), 1u);

  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcServer, CreateSessionRejectsOutOfRangeResourceCounts) {
  ServerConfig config;
  config.tcp_port = 0;
  Server server(config);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  // 1e300 once fell through an overflowing cast to a scalar session, and
  // 4294967298 wrapped to R = 2 while the journal kept the raw count.
  const std::vector<std::pair<double, Json>> cases = {
      {1e300, to_json({10, 10})},
      {4294967298.0, matrix_to_json({{10, 10}, {10, 10}})},
      {0.0, to_json({10, 10})},
      {2.5, matrix_to_json({{10, 10}, {10, 10}})}};
  for (const auto& [resources, capacities] : cases) {
    Json body = Json::object();
    body.set("resources", Json(resources));
    body.set("capacities", capacities);
    try {
      client.call(Op::kCreateSession, "r", std::move(body));
      ADD_FAILURE() << "resources " << resources << " was accepted";
    } catch (const SvcError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << resources;
    }
  }
  EXPECT_TRUE(client.stats().find("sessions")->as_array().empty());
  server.trigger_drain();
  server.wait_drained();
}

TEST(SvcServer, DrainRefusesNewWorkAndRestoresFromSnapshotFile) {
  const std::string snapshot_path =
      ::testing::TempDir() + "svc_drain_snapshot.json";
  Json first_allocation;
  {
    ServerConfig config;
    config.tcp_port = 0;
    config.snapshot_path = snapshot_path;
    Server server(config);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.create_session("persisted", {30, 20, 10});
    client.add_job("persisted", {30, 0, 0});
    client.add_job("persisted", {15, 15, 5});
    first_allocation = *client.solve("persisted").find("allocation");
    server.trigger_drain();
    server.wait_drained();
    EXPECT_TRUE(server.draining());
  }
  {
    ServerConfig config;
    config.tcp_port = 0;
    Server server(config);
    server.restore_from_file(snapshot_path);
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    Json resolved = client.solve("persisted");
    EXPECT_EQ(resolved.find("allocation")->dump(), first_allocation.dump());
    server.trigger_drain();
    server.wait_drained();
  }
}

}  // namespace
}  // namespace amf::svc
