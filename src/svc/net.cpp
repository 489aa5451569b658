#include "svc/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "svc/proto.hpp"
#include "util/error.hpp"

namespace amf::svc {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw util::ContractError(what + ": " + std::strerror(errno));
}

/// connect() with an optional deadline: non-blocking connect, poll for
/// writability, then check SO_ERROR. Restores blocking mode on success.
void connect_checked(int fd, const sockaddr* addr, socklen_t len,
                     double timeout_ms, const std::string& what,
                     const WaitInterrupt* interrupt = nullptr) {
  if (timeout_ms <= 0.0) {
    if (::connect(fd, addr, len) != 0) fail_errno(what);
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno(what + " fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    fail_errno(what + " fcntl(O_NONBLOCK)");
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno == EAGAIN) {
    // AF_UNIX reports a full accept backlog as EAGAIN with NO connect in
    // flight — polling POLLOUT would lie (an unconnected unix fd shows
    // writable with SO_ERROR 0), so retry the connect itself until the
    // deadline.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(timeout_ms);
    do {
      if (std::chrono::steady_clock::now() >= deadline)
        throw util::ContractError(what + ": connect timed out after " +
                                  std::to_string(timeout_ms) + " ms");
      ::poll(nullptr, 0, 2);  // brief sleep between backlog probes
      rc = ::connect(fd, addr, len);
    } while (rc != 0 && errno == EAGAIN);
  }
  if (rc != 0) {
    if (errno != EINPROGRESS) fail_errno(what);
    const WaitStatus waited = wait_fd(fd, POLLOUT, timeout_ms, interrupt);
    if (waited == WaitStatus::kError) fail_errno(what + " poll");
    if (waited == WaitStatus::kStopped)
      throw util::ContractError(what + ": connect interrupted");
    if (waited == WaitStatus::kTimeout)
      throw util::ContractError(what + ": connect timed out after " +
                                std::to_string(timeout_ms) + " ms");
    int err = 0;
    socklen_t err_len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0)
      fail_errno(what + " getsockopt(SO_ERROR)");
    if (err != 0) {
      errno = err;
      fail_errno(what);
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0)
    fail_errno(what + " fcntl(restore)");
}

}  // namespace

WaitStatus wait_fd(int fd, short events, double timeout_ms,
                   const WaitInterrupt* interrupt) {
  const int wake_fd = interrupt != nullptr ? interrupt->wake_fd : -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (true) {
    const double left = std::chrono::duration<double, std::milli>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (left <= 0.0) return WaitStatus::kTimeout;
    pollfd fds[2];
    fds[0] = {fd, events, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    // Round up so a sub-millisecond remainder still sleeps.
    const int n =
        ::poll(fds, wake_fd >= 0 ? 2 : 1, static_cast<int>(left) + 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return WaitStatus::kError;
    }
    if (wake_fd >= 0 && fds[1].revents != 0) {
      char buf[256];
      while (::read(wake_fd, buf, sizeof buf) == sizeof buf) {
      }
      if (interrupt->stop()) return WaitStatus::kStopped;
    }
    if (fds[0].revents != 0) return WaitStatus::kReady;
  }
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(std::string_view data) const {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LineReader::Status LineReader::read_line(std::string* out) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (!out->empty() && out->back() == '\r') out->pop_back();
      return Status::kLine;
    }
    if (buffer_.size() > kMaxLineBytes) return Status::kOversized;
    if (eof_) return buffer_.empty() ? Status::kEof : Status::kError;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::kTimeout;
      return Status::kError;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

int effective_backlog(const ListenOptions& options) {
  if (options.backlog > 0) return options.backlog;
  return SOMAXCONN;
}

}  // namespace

Socket listen_unix(const std::string& path, ListenOptions options) {
  // Bind and listen under a temporary name in the same directory, then
  // rename it onto `path`: a client that sees the socket file can connect
  // at once, and rename replaces a stale socket atomically.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  AMF_REQUIRE(tmp.size() < sizeof addr.sun_path,
              "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, tmp.c_str(), tmp.size() + 1);

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_UNIX)");
  ::unlink(tmp.c_str());
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    fail_errno("bind(" + tmp + ")");
  auto fail_unlinking_tmp = [&](const std::string& what) {
    const int err = errno;
    ::unlink(tmp.c_str());
    errno = err;
    fail_errno(what);
  };
  if (::listen(sock.fd(), effective_backlog(options)) != 0)
    fail_unlinking_tmp("listen(" + tmp + ")");
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail_unlinking_tmp("rename(" + tmp + ", " + path + ")");
  return sock;
}

Socket listen_tcp(int port, int* bound_port, ListenOptions options) {
  AMF_REQUIRE(port >= 0 && port <= 65535, "tcp port out of range");
  AMF_REQUIRE(bound_port != nullptr, "bound_port is required");
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
#ifdef SO_REUSEPORT
  if (options.reuseport)
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
#endif

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    fail_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  if (::listen(sock.fd(), effective_backlog(options)) != 0)
    fail_errno("listen");

  sockaddr_in actual{};
  socklen_t len = sizeof actual;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) !=
      0)
    fail_errno("getsockname");
  *bound_port = ntohs(actual.sin_port);
  return sock;
}

void enable_keepalive(int fd) {
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one);
  // Tighten the probe schedule from the kernel defaults (hours) to under
  // a minute: idle 30 s, then 3 probes 5 s apart. Harmless no-ops on
  // AF_UNIX fds, same as the TCP_NODELAY idiom below.
#ifdef TCP_KEEPIDLE
  const int idle_s = 30;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle_s, sizeof idle_s);
#endif
#ifdef TCP_KEEPINTVL
  const int interval_s = 5;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval_s, sizeof interval_s);
#endif
#ifdef TCP_KEEPCNT
  const int probes = 3;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &probes, sizeof probes);
#endif
}

Socket accept_connection(const Socket& listener) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      // Latency over bandwidth: responses are single small lines.
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      // Detect half-dead peers instead of holding their session forever.
      enable_keepalive(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();
  }
}

Socket connect_unix(const std::string& path, double timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  AMF_REQUIRE(path.size() < sizeof addr.sun_path,
              "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_UNIX)");
  connect_checked(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                  timeout_ms, "connect(" + path + ")");
  return sock;
}

Socket connect_tcp(const std::string& host, int port, double timeout_ms,
                   const WaitInterrupt* interrupt) {
  AMF_REQUIRE(port > 0 && port <= 65535, "tcp port out of range");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw util::ContractError("connect: invalid IPv4 address " + host);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  enable_keepalive(sock.fd());
  connect_checked(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                  timeout_ms,
                  "connect(" + host + ":" + std::to_string(port) + ")",
                  interrupt);
  return sock;
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0)
    fail_errno("fcntl(F_SETFL)");
}

void set_recv_timeout_ms(int fd, double ms) {
  timeval tv{};
  if (ms > 0.0) {
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // floor 1 ms
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool wait_readable(int fd, int wake_fd) {
  pollfd fds[2];
  fds[0].fd = fd;
  fds[0].events = POLLIN;
  fds[1].fd = wake_fd;
  fds[1].events = POLLIN;
  while (true) {
    const int n = ::poll(fds, wake_fd >= 0 ? 2 : 1, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0)
      return false;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) return true;
  }
}

}  // namespace amf::svc
