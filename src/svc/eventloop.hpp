// eventloop.hpp — the event-driven connection layer: a small set of
// epoll reactor threads multiplexing every client connection.
//
// Each reactor owns an epoll instance (level-triggered) and a wake pipe.
// Registered fds are distributed round-robin at add(); every readiness
// event dispatches to the fd's callback ON THAT REACTOR THREAD, so one
// fd's callbacks never run concurrently with each other. Cross-thread
// operations (arming EPOLLOUT from an executor thread, deregistering at
// drain) go through epoll_ctl, which the kernel serializes — no reactor
// handshake needed.
//
// ## Lifetime contract
//
// The loop holds each callback in a shared_ptr and dispatches from a
// copy, so remove() never destroys a callback mid-call; but a callback
// already being dispatched when remove() runs may still fire once. The
// owner (Server::Conn in server.cpp) therefore keeps its own state alive
// via shared_ptr captured in the callback and tolerates one late event
// after deregistering. Close the fd only after remove() — epoll drops
// closed fds on its own, but a reused fd number must never alias a
// stale registration.
//
// stop() parks the reactors permanently but keeps the epoll fds open
// until destruction, so a straggler set_want_write() from a response
// writer after drain is a harmless no-op instead of an EBADF.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace amf::svc {

class EventLoop {
 public:
  /// Ready-event callback; `events` is the raw epoll mask (EPOLLIN,
  /// EPOLLOUT, EPOLLHUP, EPOLLERR, EPOLLRDHUP).
  using Callback = std::function<void(std::uint32_t events)>;

  /// Spawns `threads` reactor threads (minimum 1).
  explicit EventLoop(std::size_t threads);
  ~EventLoop();  ///< stop()

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Next reactor round-robin. Pick first, record the index in the
  /// connection state, THEN add(): events may fire before add() returns,
  /// and the callback usually needs the index to deregister itself.
  std::size_t pick();

  /// Registers a non-blocking fd on `reactor`, level-triggered for
  /// EPOLLIN|EPOLLRDHUP.
  void add(std::size_t reactor, int fd, Callback callback);

  /// Toggles EPOLLOUT interest (thread-safe from any thread; no-op on an
  /// fd already removed or after stop()).
  void set_want_write(std::size_t reactor, int fd, bool want);

  /// Deregisters fd from its reactor. See the lifetime contract above.
  void remove(std::size_t reactor, int fd);

  /// Wakes and joins every reactor. Registered callbacks are released;
  /// none fires afterwards. Idempotent.
  void stop();

  std::size_t reactors() const { return reactors_.size(); }

 private:
  struct Reactor {
    int epfd = -1;
    int wake_read = -1;
    int wake_write = -1;
    std::mutex mu;
    std::unordered_map<int, std::shared_ptr<Callback>> callbacks;
    std::thread thread;
  };

  void run(Reactor* reactor);

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace amf::svc
