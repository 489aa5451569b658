// executor.hpp — the shared session executor: a fixed-size thread pool
// with one FIFO run queue, replacing one-worker-thread-per-session.
//
// Sessions become runnable tasks: a session schedules itself when a
// request arrives or its batch window expires, runs one batch drain on
// whichever worker picks it up, and reschedules itself while work
// remains. The session's own `scheduled` flag guarantees at most one
// task per session is queued or running at any time, so per-session
// ordering is exactly the single-worker behaviour — pinned by the
// bit-identity tests in svc_executor_test.cpp.
//
// ## Scheduling
//
// Every submit appends to one run queue guarded by one mutex; idle
// workers sleep on one condition variable and take tasks from the
// front. Every submit wakes at most one worker. The queue's length is
// exported as the amf_svc_executor_queue_depth gauge.
//
// ## Timers
//
// submit_after() parks a task on a dedicated timer thread (an ordered map
// of deadlines) and submits it when due — the batch-window expiry
// mechanism for executor-driven sessions. Timer resolution is the
// scheduler's; the batch window is a lower bound. cancel() takes a parked
// task back before it fires, which is how a drain serves a window-parked
// batch at once.
//
// ## Shutdown
//
// stop() wakes everyone and joins. Tasks still queued at stop() are
// dropped — the server tears sessions down first (each waits for its
// in-flight task), so by the time the executor stops no task can
// reference a live session.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace amf::svc {

class SvcExecutor {
 public:
  using Task = std::function<void()>;
  /// Names one submit_after() task: its deadline and a FIFO tie-break.
  using TimerId = std::pair<std::chrono::steady_clock::time_point,
                            std::uint64_t>;

  /// Spawns `threads` workers (minimum 1) plus the timer thread.
  explicit SvcExecutor(std::size_t threads);
  ~SvcExecutor();  ///< stop()

  SvcExecutor(const SvcExecutor&) = delete;
  SvcExecutor& operator=(const SvcExecutor&) = delete;

  /// Appends a task to the run queue. No-op after stop().
  void submit(Task task);

  /// Runs `task` no earlier than `delay_ms` from now (>= 0). The id
  /// names the parked task for cancel().
  TimerId submit_after(double delay_ms, Task task);

  /// Drops a task parked by submit_after() if it has not fired yet. True
  /// when it was dropped: it will never run. False when it already went
  /// to the run queue (or was never parked): it runs as submitted.
  bool cancel(const TimerId& id);

  /// Wakes and joins every thread; queued tasks are dropped. Idempotent.
  void stop();

  std::size_t threads() const { return threads_.size(); }
  /// Tasks currently queued (excludes running ones).
  long long queue_depth() const;

 private:
  void worker_loop();
  void timer_loop();

  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::atomic<bool> stop_{false};

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::map<TimerId, Task> timers_;  ///< earliest deadline first
  std::uint64_t timer_seq_ = 0;
  std::thread timer_thread_;
};

}  // namespace amf::svc
