// amf_client — command-line client for amf_serve.
//
//   amf_client (--unix PATH | --tcp HOST PORT | --endpoints LIST)
//              <mode> [options]
//
// --endpoints takes a comma-separated ordered failover list
// ("unix:PATH" / "HOST:PORT" / "PORT"); the client rotates to the next
// endpoint on connect failures, dead/timed-out roundtrips, and typed
// not_primary responses (see DESIGN.md §15).
//
// Modes:
//   solve   read an AllocationProblem CSV on stdin, run it through a
//           service session (create_session + add_job per row + solve)
//           and print the allocation in amf_solve's CSV format — the
//           shares are bit-identical to `amf_solve` on the same input.
//   raw     forward JSON request lines from stdin, print each response
//           line to stdout (scripting / smoke tests).
//   stats   scrape the service metrics (JSON, or Prometheus with
//           --prometheus).
//   drain   trigger a graceful server drain.
//   ping    liveness check.
//   promote promote a warm standby to primary (idempotent).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "svc/client.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"

namespace {

int usage(bool help = false) {
  (help ? std::cout : std::cerr)
      << "usage: amf_client (--unix PATH | --tcp HOST PORT | "
         "--endpoints LIST) [connection options]\n"
         "                  solve|raw|stats|drain|ping|promote [options]\n"
         "  solve [--session S] [--policy amf|eamf|psmf] "
         "[--budget-ms B] [--batch-window-ms W] < problem.csv\n"
         "        prints the allocation matrix in amf_solve's CSV format\n"
         "  raw   < requests.jsonl   one response line per request line\n"
         "  stats [--prometheus]     metric registry scrape\n"
         "  drain                    graceful server drain\n"
         "  ping                     liveness check\n"
         "  promote                  promote a warm standby to primary\n"
         "connection options (accepted before or after the mode):\n"
         "  --endpoints LIST         comma-separated ordered failover list "
         "(unix:PATH,\n"
         "                           HOST:PORT, or PORT entries); the "
         "client rotates on\n"
         "                           failures and not_primary responses\n"
         "  --retries N              attempts per idempotent op (default 1)\n"
         "  --read-timeout-ms T      per-read timeout (default: block)\n"
         "  --trace                  stamp wire trace ids (see /tracez)\n"
         "  --verbose                print retry/reconnect counters to "
         "stderr on exit\n";
  return help ? 0 : 2;
}

int run_solve(amf::svc::Client& client, const std::string& session,
              const std::string& policy, double budget_ms,
              double batch_window_ms) {
  using namespace amf;
  auto problem = core::AllocationProblem::load(std::cin);

  svc::Json overrides = svc::Json::object();
  overrides.set("policy", svc::Json(policy));
  if (batch_window_ms > 0.0)
    overrides.set("batch_window_ms", svc::Json(batch_window_ms));
  client.create_session(session, problem.capacities(), std::move(overrides));
  for (int j = 0; j < problem.jobs(); ++j) {
    std::vector<double> workloads;
    if (problem.has_workloads()) workloads = problem.task_workload_row(j);
    client.add_job(session, problem.task_demand_row(j), workloads,
                   problem.weight(j));
  }
  svc::Json response = client.solve(session, budget_ms);
  const svc::Json* allocation = response.find("allocation");
  AMF_REQUIRE(allocation != nullptr, "solve response lacks an allocation");
  const svc::Json* jobs = allocation->find("jobs");
  AMF_REQUIRE(jobs != nullptr && jobs->is_array(),
              "allocation lacks a jobs array");

  std::vector<std::string> header{"job"};
  for (int s = 0; s < problem.sites(); ++s)
    header.push_back("site" + std::to_string(s));
  header.push_back("aggregate");
  util::CsvWriter csv(std::cout, header);
  int j = 0;
  for (const svc::Json& row : jobs->as_array()) {
    const svc::Json* shares = row.find("shares");
    AMF_REQUIRE(shares != nullptr, "allocation row lacks shares");
    auto values =
        svc::number_array(*shares, problem.sites(), "shares");
    std::vector<std::string> out{std::to_string(j++)};
    for (double v : values) out.push_back(util::CsvWriter::format(v));
    out.push_back(
        util::CsvWriter::format(row.number_or("aggregate", 0.0)));
    csv.row(out);
  }
  return 0;
}

int run_raw(amf::svc::Client& client) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << client.call_line(line) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  std::string unix_path, host;
  int port = -1;
  std::vector<svc::Endpoint> endpoints;
  svc::RetryPolicy retry;
  bool trace = false, verbose = false;
  // Strict numeric operand (see util/flags.hpp): a malformed or
  // out-of-range value is a usage error (exit 2), never a silent 0.
  auto number = [&](const char* text, auto* out, auto... range) {
    if (!util::parse_number(text, out, range...)) std::exit(usage());
  };
  // Connection options are accepted on either side of the mode word, so
  // this matcher runs in both argument loops.
  auto connection_flag = [&](int* idx) {
    int k = *idx;
    if (std::strcmp(argv[k], "--retries") == 0 && k + 1 < argc) {
      number(argv[++k], &retry.max_attempts, 1);
    } else if (std::strcmp(argv[k], "--endpoints") == 0 && k + 1 < argc) {
      std::string list = argv[++k];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string spec =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!spec.empty()) {
          try {
            endpoints.push_back(svc::parse_endpoint(spec));
          } catch (const std::exception& e) {
            std::cerr << "amf_client: " << e.what() << "\n";
            std::exit(2);
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strcmp(argv[k], "--read-timeout-ms") == 0 &&
               k + 1 < argc) {
      number(argv[++k], &retry.read_timeout_ms, 0.0);
      if (retry.connect_timeout_ms <= 0.0)
        retry.connect_timeout_ms = retry.read_timeout_ms;
    } else if (std::strcmp(argv[k], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[k], "--verbose") == 0) {
      verbose = true;
    } else {
      return false;
    }
    *idx = k;
    return true;
  };
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return usage(true);
    } else if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 2 < argc) {
      host = argv[++i];
      number(argv[++i], &port, 1, 65535);
    } else if (connection_flag(&i)) {
      continue;
    } else {
      break;
    }
  }
  if (i >= argc) return usage();
  if (unix_path.empty() && port < 0 && endpoints.empty()) return usage();
  const std::string mode = argv[i++];

  std::string session = "cli", policy = "amf", stats_format = "json";
  double budget_ms = 0.0, batch_window_ms = 0.0;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return usage(true);
    } else if (std::strcmp(argv[i], "--session") == 0 && i + 1 < argc) {
      session = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      policy = argv[++i];
    } else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc) {
      number(argv[++i], &budget_ms, 0.0);
    } else if (std::strcmp(argv[i], "--batch-window-ms") == 0 &&
               i + 1 < argc) {
      number(argv[++i], &batch_window_ms, 0.0);
    } else if (std::strcmp(argv[i], "--prometheus") == 0) {
      stats_format = "prometheus";
    } else if (connection_flag(&i)) {
      continue;
    } else {
      return usage();
    }
  }

  try {
    if (!unix_path.empty()) {
      svc::Endpoint ep;
      ep.unix_path = unix_path;
      endpoints.insert(endpoints.begin(), ep);
    } else if (port >= 0) {
      svc::Endpoint ep;
      ep.host = host;
      ep.port = port;
      endpoints.insert(endpoints.begin(), ep);
    }
    svc::Client client = svc::Client::connect_endpoints(endpoints, retry);
    client.set_tracing(trace);
    // Counters print even when the op throws below, so a failed run still
    // shows how much retrying it did.
    struct Verbose {
      svc::Client* client;
      bool on;
      ~Verbose() {
        if (!on) return;
        const svc::ClientStats& s = client->client_stats();
        std::cerr << "amf_client: calls=" << s.calls
                  << " retries=" << s.retries
                  << " reconnects=" << s.reconnects
                  << " timeouts=" << s.timeouts
                  << " failovers=" << s.failovers
                  << " backoff_ms=" << s.backoff_ms;
        if (client->last_trace() != 0)
          std::cerr << " last_trace=" << client->last_trace();
        std::cerr << "\n";
      }
    } verbose_guard{&client, verbose};
    if (mode == "solve")
      return run_solve(client, session, policy, budget_ms, batch_window_ms);
    if (mode == "raw") return run_raw(client);
    if (mode == "stats") {
      svc::Json response = client.stats(stats_format);
      if (stats_format == "prometheus") {
        std::cout << response.string_or("text", "");
      } else {
        const svc::Json* metrics = response.find("metrics");
        std::cout << (metrics != nullptr ? metrics->dump() : "{}") << "\n";
      }
      return 0;
    }
    if (mode == "drain") {
      client.drain();
      std::cout << "draining\n";
      return 0;
    }
    if (mode == "ping") {
      std::cout << (client.ping() ? "pong" : "no pong") << "\n";
      return 0;
    }
    if (mode == "promote") {
      svc::Json response = client.promote();
      std::cout << "role=" << response.string_or("role", "?")
                << " epoch=" << static_cast<long long>(
                       response.number_or("epoch", 0.0))
                << " promoted="
                << (response.bool_or("promoted", false) ? "true" : "false")
                << "\n";
      return 0;
    }
    return usage();
  } catch (const svc::SvcError& e) {
    std::cerr << "amf_client: [" << svc::to_string(e.code()) << "] "
              << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "amf_client: " << e.what() << "\n";
    return 1;
  }
}
