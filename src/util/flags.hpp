// flags.hpp — strict numeric parsing for command-line flag operands.
//
// atoi/atof accept garbage silently ("foo" is 0, "5x" is 5) and a
// negative count cast to size_t wraps to SIZE_MAX. parse_number() takes
// the whole operand or nothing: empty input, leading spaces or '+',
// trailing junk, out-of-range values and non-finite reals are rejected,
// and unsigned targets never accept a '-' sign.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

namespace amf::util {

/// Parses all of `text` as one T in [lo, hi]. On success writes *out and
/// returns true; otherwise leaves *out untouched and returns false.
template <typename T>
bool parse_number(const char* text, T* out,
                  std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                  std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

}  // namespace amf::util
