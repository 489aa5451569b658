// deadline.hpp — the one time budget of a solve: a monotonic deadline,
// installed ambiently.
//
// An online scheduler must bound the *latency* of a reallocation point,
// not just its outcome: a solver that is correct but unbounded can stall
// the whole event loop. A budget is a Deadline — a point on the monotonic
// clock (never affected by wall-clock adjustments); a default-constructed
// one never expires.
//
// A budget travels one way: ScopedDeadline installs it in a thread-local
// slot for the duration of a scope, and the solvers that serve under a
// budget read it through ambient_deadline(). That is how a per-event
// budget crosses the virtual Allocator interface without widening any
// signature. Only three loops poll it — the progressive fill
// (core/amf.cpp), the critical-level solve (flow/parametric.cpp) and
// Dinic's phase loop (flow/network.cpp) — and they poll, they are never
// interrupted asynchronously: a stopped solver leaves its data
// structures consistent and reports flow::LevelStatus::kDeadlineExceeded
// with a feasible partial result. Every other solver (the simplex, the
// min-cost flow) runs to completion. With no deadline installed the
// pollers read no clock.
#pragma once

#include <chrono>

namespace amf::util {

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
  /// Reads the clock only when limited.
  bool expired() const { return !unlimited_ && Clock::now() >= when_; }

  /// Milliseconds until expiry: +inf when unlimited, clamped at 0 once
  /// expired.
  double remaining_ms() const;

 private:
  bool unlimited_ = true;
  Clock::time_point when_{};
};

/// The ambient (thread-local) deadline: the one installed by the
/// innermost live ScopedDeadline, else Deadline::never().
const Deadline& ambient_deadline();

/// RAII installation of the ambient deadline for the current scope (the
/// previous one is restored on destruction).
class ScopedDeadline {
 public:
  explicit ScopedDeadline(Deadline deadline);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline previous_;
};

}  // namespace amf::util
