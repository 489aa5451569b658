// executor.hpp — the shared session executor: a fixed-size work-stealing
// thread pool that replaces one-worker-thread-per-session.
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
// Each worker owns a deque (its local run queue); external submitters
// feed a shared injection queue. A worker takes, in order: the front of
// its own deque, the front of the injection queue, then the BACK of
// another worker's deque (the steal — counted, exported as the
// amf_svc_executor_steal_count gauge). Tasks submitted from a worker
// thread go to that worker's deque (locality); everything else is
// injected. Idle workers sleep on one condition variable; every submit
// wakes at most one.
//
// ## Timers
//
// submit_after() parks a task on a dedicated timer thread (an ordered map
// of deadlines) and injects it when due — the batch-window expiry
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
#include <memory>
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

  /// Enqueues a task: on the calling worker's own deque when called from
  /// a pool thread, on the injection queue otherwise. No-op after stop().
  void submit(Task task);

  /// Runs `task` no earlier than `delay_ms` from now (>= 0). The id
  /// names the parked task for cancel().
  TimerId submit_after(double delay_ms, Task task);

  /// Drops a task parked by submit_after() if it has not fired yet. True
  /// when it was dropped: it will never run. False when it already went
  /// to the run queues (or was never parked): it runs as submitted.
  bool cancel(const TimerId& id);

  /// Wakes and joins every thread; queued tasks are dropped. Idempotent.
  void stop();

  std::size_t threads() const { return workers_.size(); }
  /// Tasks taken from another worker's deque since construction.
  long long steal_count() const;
  /// Tasks currently queued (all deques + injection; excludes running).
  long long queue_depth() const;

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };
  void worker_loop(std::size_t index);
  void timer_loop();
  /// One scheduling round: local pop, injection pop, then steal sweep.
  bool take_task(std::size_t index, Task* out);
  void inject(Task task);
  void note_submitted();
  void note_taken();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mu_;
  std::deque<Task> inject_;

  /// Sleep/wake: pending_ counts queued tasks; sleepers wait on cv_.
  std::mutex sleep_mu_;
  std::condition_variable cv_;
  std::atomic<long long> pending_{0};
  std::atomic<long long> steals_{0};
  std::atomic<bool> stop_{false};

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::map<TimerId, Task> timers_;  ///< earliest deadline first
  std::uint64_t timer_seq_ = 0;
  std::thread timer_thread_;
};

}  // namespace amf::svc
