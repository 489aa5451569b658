// amf_serve — the allocation service daemon.
//
//   amf_serve (--unix PATH | --tcp PORT) [options]
//
// Listens on a Unix-domain socket or loopback TCP port and speaks the
// line-delimited JSON protocol of DESIGN.md §11: named sessions hold one
// allocation problem each, mutated through delta requests and re-solved
// incrementally, with request batching and typed admission control.
// SIGTERM/SIGINT trigger a graceful drain: queued work is served, the
// session snapshot is written (--snapshot-out), new work is refused.
//
// With --journal DIR every session keeps a write-ahead log in DIR; after
// a crash (kill -9, power loss) the same flag replays the logs on
// startup and the recovered sessions are bit-identical to the uncrashed
// server's ACKed state (see DESIGN.md §12).
//
// High availability (DESIGN.md §15): --replicate-to streams every journal
// record to a warm standby started with --standby; SIGUSR1 (or the
// `promote` op) promotes the standby to primary under a higher epoch.
#include <sys/stat.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "svc/http.hpp"
#include "svc/server.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace {

int usage(bool help = false) {
  (help ? std::cout : std::cerr)
      << "usage: amf_serve (--unix PATH | --tcp PORT) "
         "[--batch-window-ms W] [--max-queue-depth N]\n"
         "                 [--max-queue-age-ms A] [--default-budget-ms B] "
         "[--policy amf|eamf|psmf]\n"
         "                 [--snapshot-out F] [--restore F] [--journal DIR] "
         "[--fsync always|batch|off]\n"
         "                 [--dedup-window N] [--journal-compact-every N] "
         "[--http ADDR] [--log-level L]\n"
         "                 [--slow-solve-ms T] [--slo-window-s W] "
         "[--slo-p99-ms T] [--slo-budget B]\n"
         "                 [--replicate-to ADDR] [--repl-ack] "
         "[--repl-ack-timeout-ms T] [--standby PORT]\n"
         "                 [--io-threads N] [--executor-threads N] "
         "[--backlog N]\n"
         "  --unix PATH          listen on a Unix-domain socket at PATH\n"
         "  --tcp PORT           listen on loopback TCP (0 = ephemeral; "
         "the bound port is printed)\n"
         "  --batch-window-ms W  per-session request coalescing window "
         "(default 0 = serve immediately)\n"
         "  --max-queue-depth N  bounded per-session queue; beyond it "
         "requests are shed\n"
         "                       with typed `overloaded` errors "
         "(default 256)\n"
         "  --max-queue-age-ms A shed solves that waited longer than A "
         "before serving (0 = off)\n"
         "  --default-budget-ms B  time budget for solves that carry "
         "none (0 = unbudgeted)\n"
         "  --policy P           default allocation policy for new "
         "sessions (default amf)\n"
         "  --snapshot-out F     write the sessions snapshot to F on "
         "graceful drain\n"
         "  --restore F          reload sessions from a drain snapshot "
         "before listening\n"
         "  --journal DIR        write-ahead journal per session in DIR "
         "(created if missing);\n"
         "                       crashed sessions are replayed from it on "
         "startup\n"
         "  --fsync P            journal durability: always (fsync per "
         "ACK), batch (per\n"
         "                       batch window, the default), off\n"
         "  --dedup-window N     per-session retried-rid window "
         "(default 1024; 0 = off)\n"
         "  --journal-compact-every N  compact a quiescent session's "
         "journal once it\n"
         "                       holds N records (default 4096; 0 = "
         "never)\n"
         "  --http ADDR          serve GET /metrics, /healthz, /tracez, "
         "/slo on loopback\n"
         "                       HTTP (ADDR = port, :port, or "
         "127.0.0.1:port; 0 = ephemeral,\n"
         "                       the bound port is printed)\n"
         "  --log-level L        structured log threshold: debug, info, "
         "warn (default),\n"
         "                       error, off — JSON lines on stderr\n"
         "  --slow-solve-ms T    warn-log solves slower than T ms "
         "(0 = off)\n"
         "  --slo-window-s W     rolling SLO window width in seconds "
         "(default 10)\n"
         "  --slo-p99-ms T       turnaround p99 target backing the burn "
         "rate (default 50)\n"
         "  --slo-budget B       error budget as a fraction of requests "
         "(default 0.01)\n"
         "  --replicate-to ADDR  stream journal records to a warm standby "
         "at host:port or\n"
         "                       port (loopback); requires --journal\n"
         "  --repl-ack           withhold delta ACKs until the standby "
         "confirms the append\n"
         "                       (default: async replication)\n"
         "  --repl-ack-timeout-ms T  bound on each standby confirmation "
         "wait (default 5000)\n"
         "  --standby PORT       run as a warm standby: receive a "
         "primary's replication\n"
         "                       stream on loopback PORT (0 = ephemeral; "
         "the bound port is\n"
         "                       printed). Session work is refused with "
         "`not_primary` until\n"
         "                       SIGUSR1 or the `promote` op promotes "
         "this server\n"
         "  --io-threads N       epoll reactor threads (0 = auto, "
         "min(4, cores))\n"
         "  --executor-threads N shared session executor pool size "
         "(0 = auto, max(2, cores))\n"
         "  --backlog N          listen(2) backlog (0 = SOMAXCONN, the "
         "default)\n";
  return help ? 0 : 2;
}

amf::svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->trigger_drain();
}

void on_promote(int) {
  if (g_server != nullptr) g_server->trigger_promote();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  svc::ServerConfig config;
  config.tcp_port = -1;
  std::string restore;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Strict numeric operand: a missing, malformed or out-of-range value
    // is a usage error (exit 2), never a silent 0 or SIZE_MAX.
    auto number = [&](auto* out, auto... range) {
      const char* v = next();
      return v != nullptr && util::parse_number(v, out, range...);
    };
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return usage(true);
    } else if (std::strcmp(argv[i], "--unix") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      config.unix_path = v;
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      if (!number(&config.tcp_port, 0, 65535)) return usage();
    } else if (std::strcmp(argv[i], "--batch-window-ms") == 0) {
      if (!number(&config.session.batch_window_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--max-queue-depth") == 0) {
      if (!number(&config.session.max_queue_depth, 1)) return usage();
    } else if (std::strcmp(argv[i], "--max-queue-age-ms") == 0) {
      if (!number(&config.session.max_queue_age_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--default-budget-ms") == 0) {
      if (!number(&config.session.default_budget_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      config.session.policy = v;
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      config.snapshot_path = v;
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      restore = v;
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      config.journal_dir = v;
    } else if (std::strcmp(argv[i], "--fsync") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        config.fsync = svc::parse_fsync_policy(v);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--dedup-window") == 0) {
      if (!number(&config.session.dedup_window)) return usage();
    } else if (std::strcmp(argv[i], "--journal-compact-every") == 0) {
      if (!number(&config.session.journal_compact_every, 0)) return usage();
    } else if (std::strcmp(argv[i], "--http") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        config.http_port = svc::parse_http_addr(v);
      } catch (const std::exception& e) {
        std::cerr << "amf_serve: " << e.what() << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        util::Logger::global().set_level(util::parse_log_level(v));
      } catch (const std::exception&) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--slow-solve-ms") == 0) {
      if (!number(&config.session.slow_solve_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--slo-window-s") == 0) {
      if (!number(&config.slo.window_s)) return usage();
    } else if (std::strcmp(argv[i], "--slo-p99-ms") == 0) {
      if (!number(&config.slo.p99_target_ms)) return usage();
    } else if (std::strcmp(argv[i], "--slo-budget") == 0) {
      if (!number(&config.slo.error_budget)) return usage();
    } else if (std::strcmp(argv[i], "--replicate-to") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      config.replicate_to = v;
    } else if (std::strcmp(argv[i], "--repl-ack") == 0) {
      config.repl_ack = true;
    } else if (std::strcmp(argv[i], "--repl-ack-timeout-ms") == 0) {
      if (!number(&config.repl_ack_timeout_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--io-threads") == 0) {
      if (!number(&config.io_threads)) return usage();
    } else if (std::strcmp(argv[i], "--executor-threads") == 0) {
      if (!number(&config.executor_threads)) return usage();
    } else if (std::strcmp(argv[i], "--backlog") == 0) {
      if (!number(&config.backlog, 0)) return usage();
    } else if (std::strcmp(argv[i], "--standby") == 0) {
      if (!number(&config.standby_port, 0, 65535)) return usage();
    } else {
      return usage();
    }
  }
  if (config.unix_path.empty() && config.tcp_port < 0) return usage();

  try {
    const std::string journal_dir = config.journal_dir;
    if (!journal_dir.empty() && ::mkdir(journal_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::cerr << "amf_serve: cannot create journal dir " << journal_dir
                << ": " << std::strerror(errno) << "\n";
      return 1;
    }
    svc::Server server(std::move(config));
    if (!restore.empty()) server.restore_from_file(restore);
    if (!journal_dir.empty()) {
      const svc::RecoveryReport report = server.recover_from_journal();
      for (const std::string& warning : report.warnings)
        std::cerr << "amf_serve: journal: " << warning << "\n";
      if (report.sessions > 0)
        std::cerr << "amf_serve: recovered " << report.sessions
                  << " session(s), " << report.deltas
                  << " journaled delta(s)\n";
    }
    g_server = &server;
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    struct sigaction sp {};
    sp.sa_handler = on_promote;
    sigaction(SIGUSR1, &sp, nullptr);
    server.start();
    if (!server.unix_path().empty())
      std::cerr << "amf_serve: listening on unix:" << server.unix_path()
                << "\n";
    else
      std::cerr << "amf_serve: listening on 127.0.0.1:" << server.tcp_port()
                << "\n";
    if (server.http_port() >= 0)
      std::cerr << "amf_serve: http on 127.0.0.1:" << server.http_port()
                << "\n";
    if (server.repl_port() >= 0)
      std::cerr << "amf_serve: standby repl on 127.0.0.1:"
                << server.repl_port() << "\n";
    server.wait_drained();
    g_server = nullptr;
    std::cerr << "amf_serve: drained\n";
  } catch (const std::exception& e) {
    std::cerr << "amf_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
