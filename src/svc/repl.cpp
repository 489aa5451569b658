#include "svc/repl.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "svc/json.hpp"
#include "svc/net.hpp"
#include "svc/proto.hpp"
#include "svc/session.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace amf::svc {

namespace {

/// Unacked records spooled in memory before the sender goes broken.
constexpr std::size_t kSpoolCap = 65536;
/// Ceiling of the doubling reconnect backoff.
constexpr double kReconnectMaxMs = 1000.0;

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw util::ContractError(what + ": " + std::strerror(errno));
}

}  // namespace

long long read_epoch_file(const std::string& dir) {
  std::ifstream in(dir + "/EPOCH");
  long long epoch = 0;
  if (!in || !(in >> epoch) || epoch < 0) return 0;
  return epoch;
}

void write_epoch_file(const std::string& dir, long long epoch) {
  const std::string path = dir + "/EPOCH";
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_errno("epoch open(" + tmp + ")");
  const std::string text = std::to_string(epoch) + "\n";
  const char* data = text.data();
  std::size_t size = text.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail_errno("epoch write(" + tmp + ")");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail_errno("epoch fsync(" + tmp + ")");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail_errno("epoch rename(" + tmp + ")");
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort: persist the rename itself
    ::close(dfd);
  }
}

ReplSender::ReplSender(ReplSenderConfig config, long long epoch)
    : config_(std::move(config)), epoch_(epoch) {
  int fds[2];
  AMF_REQUIRE(::pipe(fds) == 0, "repl sender self-pipe");
  wake_read_ = fds[0];
  wake_write_ = fds[1];
  ::fcntl(wake_write_, F_SETFL, O_NONBLOCK);  // a full pipe still wakes
}

ReplSender::~ReplSender() {
  stop();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void ReplSender::start() {
  thread_ = std::thread([this] { run(); });
}

void ReplSender::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // already stopping; fall through to the join below
    }
    stop_ = true;
    cv_.notify_all();
  }
  const char byte = 'w';
  (void)!::write(wake_write_, &byte, 1);
  if (thread_.joinable()) thread_.join();
}

bool ReplSender::offer(const std::string& session, std::string payload,
                       std::uint64_t* index) {
  *index = kFailedIndex;
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || fenced() || broken()) return false;
  if (queue_.size() >= kSpoolCap) {
    // The unacked-spool invariant (the queue holds every record the
    // standby might be missing) would break on drop, so overflow is
    // terminal: replication needs an operator re-seed.
    broken_.store(true, std::memory_order_release);
    util::Logger::global()
        .error("svc.repl_overflow")
        .num("queue_cap", static_cast<long long>(kSpoolCap));
    cv_.notify_all();
    return false;
  }
  Pending pending;
  pending.index = next_index_++;
  pending.session = session;
  pending.payload = std::move(payload);
  pending.enqueued_ms = steady_ms();
  queue_bytes_ += pending.payload.size();
  *index = pending.index;
  queue_.push_back(std::move(pending));
  update_lag_gauges_locked();
  const char byte = 'w';
  (void)!::write(wake_write_, &byte, 1);
  return true;
}

ReplSender::WaitResult ReplSender::wait_acked(std::uint64_t index,
                                              double timeout_ms) {
  if (index == kFailedIndex)
    return fenced() ? WaitResult::kFenced : WaitResult::kBroken;
  std::unique_lock<std::mutex> lock(mu_);
  const bool done = cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms), [&] {
        return acked_index_ >= index || stop_ || fenced() || broken();
      });
  if (acked_index_ >= index) return WaitResult::kAcked;
  if (fenced()) return WaitResult::kFenced;
  if (broken()) return WaitResult::kBroken;
  (void)done;
  return WaitResult::kTimeout;
}

bool ReplSender::acked(std::uint64_t index) const {
  if (index == kFailedIndex) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return acked_index_ >= index;
}

long long ReplSender::peer_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peer_epoch_;
}

std::uint64_t ReplSender::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_ - 1;
}

std::uint64_t ReplSender::acked_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_index_;
}

void ReplSender::update_lag_gauges_locked() {
  auto& metrics = SvcMetrics::get();
  metrics.repl_lag_records.set(static_cast<double>(queue_.size()));
  metrics.repl_lag_bytes.set(static_cast<double>(queue_bytes_));
  metrics.repl_lag_ms.set(
      queue_.empty() ? 0.0 : steady_ms() - queue_.front().enqueued_ms);
}

bool ReplSender::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

bool ReplSender::sleep_backoff(double* backoff_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double, std::milli>(*backoff_ms),
               [&] { return stop_; });
  *backoff_ms = std::min(*backoff_ms * 2.0, kReconnectMaxMs);
  return !stop_;
}

void ReplSender::run() {
  double backoff = config_.reconnect_initial_ms;
  // The connect and the handshake also watch the wake pipe, so stop()
  // never waits out a standby that accepts but does not answer.
  const WaitInterrupt interrupt{wake_read_, [this] { return stopping(); }};
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || fenced() || broken()) return;
    }
    Socket sock;
    try {
      sock = connect_tcp(config_.host, config_.port, 1000.0, &interrupt);
    } catch (const std::exception&) {
      if (!sleep_backoff(&backoff)) return;
      continue;
    }
    if (!handshake(sock, interrupt)) {
      if (fenced()) return;
      if (!sleep_backoff(&backoff)) return;
      continue;
    }
    backoff = config_.reconnect_initial_ms;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sent_index_ = acked_index_;  // resend everything unacked
      if (ever_connected_) SvcMetrics::get().repl_reconnects.add();
      ever_connected_ = true;
    }
    connected_.store(true, std::memory_order_release);
    util::Logger::global()
        .info("svc.repl_connected")
        .str("standby", config_.host + ":" + std::to_string(config_.port))
        .num("epoch", epoch_);
    serve_connection(sock);
    connected_.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || fenced() || broken()) {
        cv_.notify_all();
        return;
      }
    }
  }
}

bool ReplSender::handshake(Socket& sock, const WaitInterrupt& interrupt) {
  Json hello = Json::object();
  hello.set("t", Json(std::string("hello")));
  hello.set("v", Json(1));
  hello.set("epoch", Json(epoch_));
  if (!sock.send_all(hello.dump() + "\n")) return false;
  // Non-blocking reads between waits: EAGAIN surfaces as kTimeout, and a
  // partial line stays buffered in the reader.
  const double deadline = steady_ms() + 2000.0;
  set_nonblocking(sock.fd(), true);
  LineReader reader(sock.fd());
  std::string line;
  LineReader::Status status = reader.read_line(&line);
  while (status == LineReader::Status::kTimeout &&
         wait_fd(sock.fd(), POLLIN, deadline - steady_ms(), &interrupt) ==
             WaitStatus::kReady)
    status = reader.read_line(&line);
  set_nonblocking(sock.fd(), false);
  if (status != LineReader::Status::kLine) return false;
  Json reply;
  try {
    reply = Json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  const std::string t = reply.string_or("t", "");
  long long peer = 0;
  if (!stream_counter(reply, "epoch", &peer)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer_epoch_ = std::max(peer_epoch_, peer);
  }
  if (t == "fenced") {
    fenced_.store(true, std::memory_order_release);
    SvcMetrics::get().repl_fenced.add();
    util::Logger::global()
        .warn("svc.repl_fenced")
        .num("epoch", epoch_)
        .num("peer_epoch", peer);
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
    return false;
  }
  return t == "ok";
}

void ReplSender::serve_connection(Socket& sock) {
  // Replies can sit in the LineReader's buffer where poll() cannot see
  // them, so each POLLIN drains until the socket is empty. The drain
  // flips the fd non-blocking (EAGAIN surfaces as kTimeout) instead of
  // using a receive timeout: a blocking recv would stall the send path
  // for the full timeout after every ack, putting a fixed floor under
  // repl-ack latency.
  LineReader reader(sock.fd());
  while (true) {
    std::string batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || fenced() || broken()) return;
      for (const Pending& pending : queue_) {
        if (pending.index <= sent_index_) continue;
        Json rec = Json::object();
        rec.set("t", Json(std::string("rec")));
        rec.set("i", Json(static_cast<double>(pending.index)));
        rec.set("epoch", Json(epoch_));
        rec.set("session", Json(pending.session));
        rec.set("record", Json::parse(pending.payload));
        batch += rec.dump();
        batch += '\n';
        sent_index_ = pending.index;
        SvcMetrics::get().repl_sent.add();
      }
    }
    if (!batch.empty() && !sock.send_all(batch)) return;

    struct pollfd fds[2];
    fds[0] = {sock.fd(), POLLIN, 0};
    fds[1] = {wake_read_, POLLIN, 0};
    const int rc = ::poll(fds, 2, 200);
    if (rc < 0 && errno != EINTR) return;
    if (fds[1].revents != 0) {
      char buf[256];
      while (::read(wake_read_, buf, sizeof buf) == sizeof buf) {
      }
    }
    if (fds[0].revents != 0) {
      const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
      ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
      bool dead = false;
      std::string line;
      while (true) {
        const LineReader::Status status = reader.read_line(&line);
        if (status == LineReader::Status::kTimeout) break;  // drained
        if (status != LineReader::Status::kLine) {
          dead = true;
          break;
        }
        bool fatal = false;
        std::lock_guard<std::mutex> lock(mu_);
        handle_reply_locked(line, &fatal);
        if (fatal) dead = true;
        if (dead) break;
      }
      ::fcntl(sock.fd(), F_SETFL, flags);
      if (dead) return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    update_lag_gauges_locked();
  }
}

void ReplSender::handle_reply_locked(const std::string& line, bool* fatal) {
  Json reply;
  try {
    reply = Json::parse(line);
  } catch (const std::exception&) {
    *fatal = true;  // framing lost; reconnect and resend unacked
    return;
  }
  const std::string t = reply.string_or("t", "");
  long long peer = 0;
  long long reply_index = 0;
  if (!stream_counter(reply, "epoch", &peer) ||
      !stream_counter(reply, "i", &reply_index)) {
    *fatal = true;  // no standby writes such a number; reconnect
    return;
  }
  if (t == "ack") {
    const auto index = static_cast<std::uint64_t>(reply_index);
    if (index > acked_index_) {
      acked_index_ = index;
      while (!queue_.empty() && queue_.front().index <= acked_index_) {
        queue_bytes_ -= queue_.front().payload.size();
        SvcMetrics::get().repl_acked.add();
        queue_.pop_front();
      }
      update_lag_gauges_locked();
      cv_.notify_all();
    }
    return;
  }
  if (t == "fenced") {
    peer_epoch_ = std::max(peer_epoch_, peer);
    fenced_.store(true, std::memory_order_release);
    SvcMetrics::get().repl_fenced.add();
    util::Logger::global()
        .warn("svc.repl_fenced")
        .num("epoch", epoch_)
        .num("peer_epoch", peer);
    cv_.notify_all();
    *fatal = true;
    return;
  }
  if (t == "err") {
    broken_.store(true, std::memory_order_release);
    util::Logger::global()
        .error("svc.repl_rejected")
        .str("message", reply.string_or("message", ""))
        .num("i", reply_index);
    cv_.notify_all();
    *fatal = true;
    return;
  }
  *fatal = true;  // unknown reply type: treat as a broken stream
}

}  // namespace amf::svc
