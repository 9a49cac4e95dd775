#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace dasm {
namespace {

TEST(Prng, SameSeedSameStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Prng, ZeroSeedIsWellMixed) {
  Xoshiro256 rng(0);
  // A badly seeded xoshiro (all-zero state) would emit zeros forever.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 30u);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Prng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(kBuckets))];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 0.05 * expected);
  }
}

TEST(Prng, RangeInclusive) {
  Xoshiro256 rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, BernoulliMatchesProbability) {
  Xoshiro256 rng(9);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Prng, IntegerBernoulliIsBitExact) {
  const double ps[] = {0.0, 0x1.0p-53, 1.0 / 3.0, 16.0 / 4096.0,
                       0.5, 1.0 - 0x1.0p-53, 1.0};
  for (const double p : ps) {
    const std::uint64_t t = Xoshiro256::bernoulli_threshold(p);
    // Both sides of the threshold under the double form: the largest
    // passing 53-bit value is t - 1, the smallest failing one is t.
    if (t > 0) {
      EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p) << p;
    }
    if (t < (std::uint64_t{1} << 53)) {
      EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p) << p;
    }
    for (const std::uint64_t seed : {1, 2, 77}) {
      Xoshiro256 as_double(seed);
      Xoshiro256 as_integer(seed);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(as_double.bernoulli(p), as_integer.bernoulli_below(t))
            << "p=" << p << " seed=" << seed << " draw " << i;
      }
    }
  }
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
}

TEST(Prng, ShuffleIsAPermutation) {
  Xoshiro256 rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // astronomically unlikely to be identity
}

TEST(Prng, DeriveStreamIndependence) {
  auto a = derive_stream(99, 0);
  auto b = derive_stream(99, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
  auto a2 = derive_stream(99, 0);
  EXPECT_EQ(a2(), derive_stream(99, 0)());
}

TEST(Prng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  EXPECT_NE(s, 0u);
}

}  // namespace
}  // namespace dasm
