// net.hpp — minimal POSIX stream-socket plumbing for the service.
//
// The service listens on a Unix-domain socket (the default: local,
// filesystem-permissioned) or a loopback TCP port, and both ends frame
// messages as '\n'-terminated lines (see proto.hpp). This header wraps
// exactly the POSIX surface the server and client need: RAII fds,
// EINTR-safe full writes (MSG_NOSIGNAL — a dead peer yields an error
// return, never SIGPIPE), and a buffered line reader with the protocol's
// hard line-length bound so a hostile peer cannot grow a buffer without
// terminating a line.
//
// Setup failures (bind, listen, connect) throw util::ContractError with
// the errno string; steady-state I/O failures are status returns, because
// a disconnecting client is normal operation for a server.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace amf::svc {

/// Move-only RAII file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer (EINTR-safe, SIGPIPE-free). False on any
  /// error — the connection is then dead.
  bool send_all(std::string_view data) const;

  /// Half-closes both directions, unblocking any reader. Keeps the fd.
  void shutdown_both() const;

  void close();

 private:
  int fd_ = -1;
};

/// Buffered '\n'-line reader over a socket.
class LineReader {
 public:
  enum class Status { kLine, kEof, kError, kOversized, kTimeout };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks until one full line (without the '\n'; a trailing '\r' is
  /// stripped for telnet-style peers) is available. kEof on orderly
  /// close, kOversized when a line exceeds kMaxLineBytes (the caller
  /// must drop the connection: framing is lost), kTimeout when the fd
  /// has a receive timeout (set_recv_timeout_ms) and it expired.
  /// Partial bytes stay buffered across a kTimeout, so a retried read
  /// resumes mid-line without losing framing.
  Status read_line(std::string* out);

 private:
  int fd_;
  std::string buffer_;
  bool eof_ = false;
};

/// Listener tuning shared by the Unix and TCP binds.
struct ListenOptions {
  /// accept() backlog; 0 picks SOMAXCONN. At thousands of concurrent
  /// connects the old hard-coded 64 caused spurious connect timeouts.
  int backlog = 0;
};

/// Binds + listens on a Unix-domain socket, replacing a stale file at
/// `path`. Throws util::ContractError on failure (e.g. path too long).
Socket listen_unix(const std::string& path, ListenOptions options = {});

/// Binds + listens on loopback TCP. `port` 0 picks an ephemeral port;
/// `*bound_port` (required) receives the actual one.
Socket listen_tcp(int port, int* bound_port, ListenOptions options = {});

/// Switches O_NONBLOCK on or off. Throws util::ContractError on failure.
void set_nonblocking(int fd, bool on);

/// Accepts one connection; invalid socket on error (listener closed).
/// TCP connections get TCP_NODELAY and keepalive (enable_keepalive).
Socket accept_connection(const Socket& listener);

/// Turns on SO_KEEPALIVE with an aggressive probe schedule (30 s idle,
/// 5 s interval, 3 probes) so a half-dead TCP peer surfaces as an I/O
/// error within a minute instead of hanging its session forever.
/// Applied to accepted and client TCP sockets; no-op on AF_UNIX fds.
void enable_keepalive(int fd);

/// Cuts a bounded client wait short: `wake_fd` is polled next to the
/// socket, and each time it turns readable it is drained and `stop` is
/// asked; the wait ends as soon as `stop` returns true.
struct WaitInterrupt {
  int wake_fd = -1;
  std::function<bool()> stop;
};

enum class WaitStatus { kReady, kTimeout, kStopped, kError };

/// Waits up to `timeout_ms` for `events` (POLLIN, POLLOUT) on `fd`, or
/// until `interrupt` (when non-null) says stop.
WaitStatus wait_fd(int fd, short events, double timeout_ms,
                   const WaitInterrupt* interrupt = nullptr);

/// Client-side connects. `timeout_ms` > 0 bounds the connect itself
/// (non-blocking connect + poll, cut short by `interrupt`); 0 keeps the
/// OS default blocking behaviour. Throws util::ContractError on failure,
/// timeout or interruption (the message names which).
Socket connect_unix(const std::string& path, double timeout_ms = 0.0);
Socket connect_tcp(const std::string& host, int port,
                   double timeout_ms = 0.0,
                   const WaitInterrupt* interrupt = nullptr);

/// Applies SO_RCVTIMEO so blocked reads fail with kTimeout after `ms`
/// (0 restores indefinite blocking).
void set_recv_timeout_ms(int fd, double ms);

/// Blocks until `fd` is readable or `wake_fd` has data (drain trigger).
/// Returns false when the wait says shut down (wake_fd fired or error).
bool wait_readable(int fd, int wake_fd);

}  // namespace amf::svc
