// Whole-token, range-checked number parsing for command-line values.
//
// std::atoi and friends read the longest valid prefix ("5x" is 5, "abc"
// is 0) and leave out-of-range input undefined; a cast then turns "-1"
// into 4294967295 workers. parse_number accepts a value only when the
// whole token is one base-10 number (std::from_chars syntax: no sign on
// unsigned types, no leading '+' or whitespace) inside [lo, hi].
#pragma once

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

namespace nucon::util {

/// Stores the number `text` spells into `out` and returns true; returns
/// false, leaving `out` alone, when `text` is empty, holds bytes past the
/// number, overflows T, or lies outside [lo, hi]. For floating point, NaN
/// is never inside the range, and the default `hi` excludes infinity.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out, T lo,
                                T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || !(value >= lo && value <= hi)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace nucon::util
