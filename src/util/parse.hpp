// Strict number parsing, shared by every text format the library reads:
// instance and matching files (stable/io), request files and wire lines
// (svc/request), and command-line flags (util/cli).
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

namespace dasm {

/// Parses the whole of `tok` as a base-10 Int in [lo, hi]; nullopt
/// otherwise. No leading '+' or whitespace, no trailing characters, and
/// no narrowing: "4294967301" is out of range for a 32-bit field, not 5.
template <typename Int>
std::optional<Int> parse_integer(std::string_view tok,
                                 Int lo = std::numeric_limits<Int>::min(),
                                 Int hi = std::numeric_limits<Int>::max()) {
  Int value{};
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, value);
  if (ec != std::errc() || ptr != last || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

/// Parses the whole of `tok` as a finite decimal double; nullopt
/// otherwise. The same rules as parse_integer: no leading '+' or
/// whitespace and no trailing characters, so "0.5x" and "+0.5" are
/// errors, not 0.5; "inf", "nan" and values beyond double's range are
/// errors too.
inline std::optional<double> parse_double(std::string_view tok) {
  double value = 0.0;
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, value);
  if (ec != std::errc() || ptr != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace dasm
