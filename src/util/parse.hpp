// Strict integer parsing, shared by every text format the library reads:
// instance and matching files (stable/io) and request files and wire
// lines (svc/request).
#pragma once

#include <charconv>
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

}  // namespace dasm
