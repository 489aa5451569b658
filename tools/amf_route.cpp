// amf_route — the session-sharding router daemon (DESIGN.md §16).
//
//   amf_route (--unix PATH | --tcp PORT) --shard ADDR [--shard ADDR ...]
//
// Listens on the amf_serve line-JSON protocol and partitions sessions
// across the named backend shards by a stable hash of the session name.
// Session requests and responses pass through byte-identically; `stats`
// aggregates across shards; the router-only `move_session` op performs
// a snapshot-based shard handoff. SIGTERM/SIGINT drain the router
// (the backend shards keep running; a `drain` op through the router
// drains them too).
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "router/router.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace {

int usage(bool help = false) {
  (help ? std::cout : std::cerr)
      << "usage: amf_route (--unix PATH | --tcp PORT) --shard ADDR "
         "[--shard ADDR ...]\n"
         "                 [--backlog N] [--connect-timeout-ms T] "
         "[--read-timeout-ms T] [--log-level L]\n"
         "  --unix PATH            listen on a Unix-domain socket at PATH\n"
         "  --tcp PORT             listen on loopback TCP (0 = ephemeral; "
         "the bound port is printed)\n"
         "  --shard ADDR           a backend amf_serve endpoint "
         "(unix:PATH, HOST:PORT, or PORT);\n"
         "                         repeat once per shard — order defines "
         "shard indices\n"
         "  --backlog N            listen(2) backlog (0 = SOMAXCONN, the "
         "default)\n"
         "  --connect-timeout-ms T bound on each upstream connect "
         "(default 2000)\n"
         "  --read-timeout-ms T    bound on each upstream response wait "
         "(0 = block, the default)\n"
         "  --log-level L          structured log threshold: debug, info, "
         "warn (default), error, off\n";
  return help ? 0 : 2;
}

amf::router::Router* g_router = nullptr;

void on_signal(int) {
  if (g_router != nullptr) g_router->trigger_drain();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  router::RouterConfig config;
  config.tcp_port = -1;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Strict numeric operand: a missing, malformed or out-of-range value
    // is a usage error (exit 2), never a silent 0.
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
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        config.shards.push_back(svc::parse_endpoint(v));
      } catch (const std::exception& e) {
        std::cerr << "amf_route: " << e.what() << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--backlog") == 0) {
      if (!number(&config.backlog, 0)) return usage();
    } else if (std::strcmp(argv[i], "--connect-timeout-ms") == 0) {
      if (!number(&config.connect_timeout_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--read-timeout-ms") == 0) {
      if (!number(&config.read_timeout_ms, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        util::Logger::global().set_level(util::parse_log_level(v));
      } catch (const std::exception&) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (config.unix_path.empty() && config.tcp_port < 0) return usage();
  if (config.shards.empty()) return usage();

  try {
    router::Router router(std::move(config));
    g_router = &router;
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    router.start();
    if (!router.unix_path().empty())
      std::cerr << "amf_route: listening on unix:" << router.unix_path()
                << " (" << router.shards() << " shard(s))\n";
    else
      std::cerr << "amf_route: listening on 127.0.0.1:" << router.tcp_port()
                << " (" << router.shards() << " shard(s))\n";
    router.wait_drained();
    g_router = nullptr;
    std::cerr << "amf_route: drained\n";
  } catch (const std::exception& e) {
    std::cerr << "amf_route: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
