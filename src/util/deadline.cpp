#include "util/deadline.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace amf::util {

std::chrono::steady_clock::time_point saturating_after_ms(
    std::chrono::steady_clock::time_point from, double ms) {
  using Clock = std::chrono::steady_clock;
  AMF_REQUIRE(!(ms < 0.0), "clock offset must be >= 0");
  // The offset in clock ticks, converted as duration_cast would, against
  // the headroom left on the clock. The margin of a few ulps at 2^63
  // keeps the integer cast below in range.
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  const double headroom =
      static_cast<double>((Clock::time_point::max() - from).count()) - 4096.0;
  if (!(ticks < headroom)) return Clock::time_point::max();
  return from + Clock::duration(static_cast<Clock::rep>(ticks));
}

Deadline Deadline::after_ms(double ms) {
  AMF_REQUIRE(std::isfinite(ms) && ms >= 0.0,
              "deadline offset must be finite and >= 0");
  Deadline d;
  d.unlimited_ = false;
  d.when_ = saturating_after_ms(Clock::now(), ms);
  return d;
}

Deadline Deadline::at(Clock::time_point when) {
  Deadline d;
  d.unlimited_ = false;
  d.when_ = when;
  return d;
}

Deadline Deadline::earlier(const Deadline& a, const Deadline& b) {
  if (a.unlimited_) return b;
  if (b.unlimited_) return a;
  return a.when_ <= b.when_ ? a : b;
}

double Deadline::remaining_ms() const {
  if (unlimited_) return std::numeric_limits<double>::infinity();
  const double ms =
      std::chrono::duration<double, std::milli>(when_ - Clock::now()).count();
  return ms > 0.0 ? ms : 0.0;
}

namespace {
thread_local Deadline g_ambient_deadline;
}  // namespace

const Deadline& ambient_deadline() { return g_ambient_deadline; }

ScopedDeadline::ScopedDeadline(Deadline deadline)
    : previous_(g_ambient_deadline) {
  g_ambient_deadline = deadline;
}

ScopedDeadline::~ScopedDeadline() { g_ambient_deadline = previous_; }

}  // namespace amf::util
