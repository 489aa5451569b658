#include "svc/executor.hpp"

#include <utility>

#include "svc/session.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace amf::svc {

SvcExecutor::SvcExecutor(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this] { worker_loop(); });
  timer_thread_ = std::thread([this] { timer_loop(); });
}

SvcExecutor::~SvcExecutor() { stop(); }

void SvcExecutor::submit(Task task) {
  AMF_REQUIRE(task != nullptr, "executor task must be callable");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    queue_.push_back(std::move(task));
    SvcMetrics::get().executor_queue_depth.set(
        static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
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

void SvcExecutor::worker_loop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      SvcMetrics::get().executor_queue_depth.set(
          static_cast<double>(queue_.size()));
    }
    task();
  }
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
    submit(std::move(task));
    lock.lock();
  }
}

void SvcExecutor::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // The empty critical sections pair with each waiter's predicate check:
  // a thread that read stop_ == false is either inside wait() (notified
  // below) or has not locked yet (will see the flag).
  { std::lock_guard<std::mutex> lock(mu_); }
  { std::lock_guard<std::mutex> lock(timer_mu_); }
  cv_.notify_all();
  timer_cv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  if (timer_thread_.joinable()) timer_thread_.join();
}

long long SvcExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<long long>(queue_.size());
}

}  // namespace amf::svc
