// deadline.hpp — monotonic deadlines and cooperative cancellation.
//
// An online scheduler must bound the *latency* of a reallocation point,
// not just its outcome: a solver that is correct but unbounded can stall
// the whole event loop. The primitives here let long-running solver loops
// stop cooperatively:
//
//   * Deadline — a point on the monotonic clock (never affected by wall
//     clock adjustments). Default-constructed deadlines never expire.
//   * CancelToken — a shared atomic flag for external "stop now" requests
//     (operator kill switch, superseding event). Copies observe the same
//     flag; a default-constructed token is inert and never fires.
//   * StopToken — deadline + cancel token, the single value threaded into
//     solver loops (by const pointer; nullptr = run unbounded).
//   * StopPoller — amortizes the stop check inside tight loops: the
//     cancel flag (one relaxed atomic load) is consulted every call, the
//     clock only every `stride` calls.
//
// Solvers poll, they are never interrupted asynchronously: a stopped
// solver always leaves its data structures in a consistent state and
// reports kDeadlineExceeded (or returns a conservative partial result)
// instead of throwing mid-mutation.
//
// Ambient token: ScopedStop installs a StopToken in a thread-local slot
// for the duration of a scope. Solver entry points resolve an explicit
// token first and fall back to the ambient one (effective_stop), so a
// per-event budget reaches every layer — including allocators called
// through the virtual Allocator interface — without widening every
// signature in between.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace amf::util {

/// Thrown by solvers whose interface has no way to return a partial
/// result (e.g. the LP leximin oracle) when their stop token fires.
/// Deliberately NOT an InternalError: callers that count failure causes
/// must be able to tell "ran out of time" from "solver bug".
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `from` plus `ms` milliseconds, saturated at the clock's last
/// representable point. A finite offset past that point (about 9.2e12 ms
/// ahead on a nanosecond clock) would overflow the clock's integer count
/// and land in the past; saturating keeps it in the far future, so a
/// huge budget behaves like no budget. Requires ms >= 0 (NaN and +inf
/// saturate).
std::chrono::steady_clock::time_point saturating_after_ms(
    std::chrono::steady_clock::time_point from, double ms);

/// A point on the monotonic clock. Default-constructed = never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline that never expires (same as default construction).
  static Deadline never() { return Deadline(); }

  /// Expires `ms` milliseconds from now (saturating_after_ms). Requires
  /// ms finite and >= 0.
  static Deadline after_ms(double ms);

  /// Expires at the given monotonic time point.
  static Deadline at(Clock::time_point when);

  /// The earlier of the two deadlines (never() is the identity).
  static Deadline earlier(const Deadline& a, const Deadline& b);

  bool unlimited() const { return unlimited_; }
  bool expired() const { return !unlimited_ && Clock::now() >= when_; }

  /// Milliseconds until expiry: +inf when unlimited, clamped at 0 once
  /// expired.
  double remaining_ms() const;

 private:
  bool unlimited_ = true;
  Clock::time_point when_{};
};

/// Shared cancellation flag. Copies alias the same flag; the default
/// token has no flag and never reports cancellation.
class CancelToken {
 public:
  CancelToken() = default;

  /// A token backed by a fresh flag (copies share it).
  static CancelToken make();

  /// True when backed by a flag (even if not yet cancelled).
  bool valid() const { return flag_ != nullptr; }

  /// Requests cancellation; every copy observes it. No-op on an inert
  /// token.
  void request_cancel() const;

  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Deadline + cancel token, passed into solver loops by const pointer.
/// A default-constructed token (or a null pointer) never stops anything.
class StopToken {
 public:
  StopToken() = default;
  explicit StopToken(Deadline deadline, CancelToken cancel = {})
      : deadline_(deadline), cancel_(std::move(cancel)) {}

  /// False when neither a deadline nor a cancel flag is attached — the
  /// token can never fire and pollers skip all checks.
  bool enabled() const { return cancel_.valid() || !deadline_.unlimited(); }

  /// Cancel flag OR expired deadline. Reads the clock; use StopPoller in
  /// tight loops.
  bool stop_requested() const {
    return cancel_.cancel_requested() || deadline_.expired();
  }

  const Deadline& deadline() const { return deadline_; }
  const CancelToken& cancel() const { return cancel_; }

 private:
  Deadline deadline_;
  CancelToken cancel_;
};

/// Amortized stop check for tight loops (pivots, augmentations, Newton
/// iterations): the cancel flag is checked on every call, the clock only
/// every `stride` calls. Once it reports stop it stays stopped.
class StopPoller {
 public:
  static constexpr int kDefaultStride = 64;

  explicit StopPoller(const StopToken* token, int stride = kDefaultStride)
      : token_(token != nullptr && token->enabled() ? token : nullptr),
        stride_(stride > 0 ? stride : 1) {}

  /// True when the loop should stop (sticky).
  bool should_stop() {
    if (token_ == nullptr) return false;
    if (stopped_) return true;
    if (token_->cancel().cancel_requested()) return stopped_ = true;
    if (--countdown_ <= 0) {
      countdown_ = stride_;
      if (token_->deadline().expired()) return stopped_ = true;
    }
    return false;
  }

  /// Whether a previous should_stop() already fired (no new checks).
  bool stopped() const { return stopped_; }

 private:
  const StopToken* token_;
  int stride_;
  int countdown_ = 0;
  bool stopped_ = false;
};

/// The ambient (thread-local) stop token, or nullptr when none is
/// installed. Installed tokens reach solvers called through interfaces
/// that cannot carry one explicitly.
const StopToken* ambient_stop();

/// `explicit_token` if given, else the ambient token. The resolution rule
/// every solver entry point applies.
inline const StopToken* effective_stop(const StopToken* explicit_token) {
  return explicit_token != nullptr ? explicit_token : ambient_stop();
}

/// RAII installation of the ambient stop token for the current scope
/// (previous token restored on destruction). The token must outlive the
/// scope.
class ScopedStop {
 public:
  explicit ScopedStop(const StopToken& token);
  ~ScopedStop();
  ScopedStop(const ScopedStop&) = delete;
  ScopedStop& operator=(const ScopedStop&) = delete;

 private:
  const StopToken* previous_;
};

}  // namespace amf::util
