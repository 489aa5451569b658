#include "svc/executor.hpp"

#include <utility>

#include "svc/session.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace amf::svc {

namespace {

/// The worker a pool thread belongs to (nullptr off-pool). Keyed by the
/// executor instance so tasks submitted from a *different* executor's
/// worker are injected, not cross-queued.
thread_local SvcExecutor* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

}  // namespace

SvcExecutor::SvcExecutor(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
  timer_thread_ = std::thread([this] { timer_loop(); });
}

SvcExecutor::~SvcExecutor() { stop(); }

void SvcExecutor::note_submitted() {
  pending_.fetch_add(1, std::memory_order_release);
  SvcMetrics::get().executor_queue_depth.set(
      static_cast<double>(pending_.load(std::memory_order_relaxed)));
  // The empty critical section pairs with the waiter's predicate check:
  // a worker that saw pending_ == 0 is either inside wait() (notified
  // below) or has not locked yet (will see the new count).
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  cv_.notify_one();
}

void SvcExecutor::note_taken() {
  pending_.fetch_sub(1, std::memory_order_acquire);
  SvcMetrics::get().executor_queue_depth.set(
      static_cast<double>(pending_.load(std::memory_order_relaxed)));
}

void SvcExecutor::submit(Task task) {
  AMF_REQUIRE(task != nullptr, "executor task must be callable");
  if (stop_.load(std::memory_order_acquire)) return;
  if (tls_pool == this) {
    Worker& self = *workers_[tls_index];
    {
      std::lock_guard<std::mutex> lock(self.mu);
      self.deque.push_back(std::move(task));
    }
    note_submitted();
    return;
  }
  inject(std::move(task));
}

void SvcExecutor::inject(Task task) {
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_.push_back(std::move(task));
  }
  note_submitted();
}

SvcExecutor::TimerId SvcExecutor::submit_after(double delay_ms, Task task) {
  AMF_REQUIRE(task != nullptr, "executor task must be callable");
  if (stop_.load(std::memory_order_acquire)) return {};
  if (delay_ms <= 0.0) {
    submit(std::move(task));
    return {};
  }
  TimerId id{
      util::saturating_after_ms(std::chrono::steady_clock::now(), delay_ms),
      0};
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    id.second = ++timer_seq_;
    timers_.emplace(id, std::move(task));
  }
  timer_cv_.notify_one();
  return id;
}

bool SvcExecutor::cancel(const TimerId& id) {
  std::lock_guard<std::mutex> lock(timer_mu_);
  return timers_.erase(id) == 1;
}

bool SvcExecutor::take_task(std::size_t index, Task* out) {
  Worker& self = *workers_[index];
  {
    std::lock_guard<std::mutex> lock(self.mu);
    if (!self.deque.empty()) {
      *out = std::move(self.deque.front());
      self.deque.pop_front();
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_.empty()) {
      *out = std::move(inject_.front());
      inject_.pop_front();
      return true;
    }
  }
  // Steal sweep: one pass over the other workers, taking from the BACK
  // (the victim pops its own front, so contention meets at opposite
  // ends only when the deque holds a single task).
  for (std::size_t step = 1; step < workers_.size(); ++step) {
    Worker& victim = *workers_[(index + step) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.deque.empty()) continue;
    *out = std::move(victim.deque.back());
    victim.deque.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    SvcMetrics::get().executor_steal_count.set(
        static_cast<double>(steals_.load(std::memory_order_relaxed)));
    return true;
  }
  return false;
}

void SvcExecutor::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  while (true) {
    Task task;
    if (take_task(index, &task)) {
      note_taken();
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) break;
  }
  tls_pool = nullptr;
}

void SvcExecutor::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto due = timers_.begin()->first.first;
    const auto now = std::chrono::steady_clock::now();
    if (now < due) {
      timer_cv_.wait_until(lock, due);
      continue;
    }
    Task task = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    lock.unlock();
    inject(std::move(task));
    lock.lock();
  }
}

void SvcExecutor::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  cv_.notify_all();
  timer_cv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  if (timer_thread_.joinable()) timer_thread_.join();
}

long long SvcExecutor::steal_count() const {
  return steals_.load(std::memory_order_relaxed);
}

long long SvcExecutor::queue_depth() const {
  return pending_.load(std::memory_order_relaxed);
}

}  // namespace amf::svc
