// Deterministic pseudo-random number generation.
//
// All randomness in the library flows from a single 64-bit seed. Each
// distributed processor derives an independent stream with derive_stream()
// (splitmix64 over (seed, salt)), so executions are reproducible regardless
// of the order in which processors are simulated.
//
// The generator is xoshiro256** — fast, tiny state, excellent statistical
// quality, and (unlike std::mt19937) identical output across standard
// library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace dasm {

/// splitmix64 step: the canonical 64-bit mixer, used for seeding streams.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 so any seed (including 0)
  /// yields a well-mixed state.
  explicit Xoshiro256(std::uint64_t seed = 0) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Unbiased uniform integer in [0, bound). bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    DASM_DCHECK(bound > 0);
    // Lemire's rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    DASM_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// The same trial as an integer comparison, for hot loops with a fixed
  /// p in [0, 1]: bernoulli_below(bernoulli_threshold(p)) answers exactly
  /// as bernoulli(p) does on every draw. The 53-bit value uniform01()
  /// scales is exact in a double, and so is p * 2^53, so
  /// k * 2^-53 < p  <=>  k < ceil(p * 2^53) for every integer k.
  static std::uint64_t bernoulli_threshold(double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  bool bernoulli_below(std::uint64_t threshold) {
    return ((*this)() >> 11) < threshold;
  }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    const auto n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives an independent generator from (seed, salt) — e.g. one stream per
/// simulated processor, salt = node id.
inline Xoshiro256 derive_stream(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t sm = seed ^ (0x632be59bd9b4e019ULL * (salt + 1));
  const std::uint64_t derived = splitmix64(sm) ^ splitmix64(sm);
  return Xoshiro256(derived);
}

}  // namespace dasm
