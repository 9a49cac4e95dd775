// Canonical digests for the matching service's cache keys (DESIGN.md §9).
//
// A ResultCache entry is addressed by (instance digest, run-parameter
// digest). Both halves are FNV-1a 64 over an explicit canonical byte
// stream — never over in-memory representations — so the key is a pure
// function of the mathematical instance and of every knob that can change
// a run's output: two Instances with equal preference lists collide by
// construction, regardless of how they were loaded or generated, and two
// requests collide iff no observable output could differ between them.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "congest/fault.hpp"

namespace dasm {
class Instance;
}

namespace dasm::svc {

/// Incremental FNV-1a 64. Words are fed byte-wise little-endian, so the
/// digest is identical across platforms with the same canonical stream.
class Fnv1a {
 public:
  Fnv1a& mix_byte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    return *this;
  }
  Fnv1a& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fnv1a& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
  Fnv1a& mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// Digest of the mathematical instance: side sizes plus every preference
/// list (length-prefixed, men then women). O(|E|); the InstanceStore
/// computes it once at registration.
std::uint64_t digest_instance(const Instance& inst);

/// Digest of a FaultPlan — every field that can alter a run's fault
/// decisions, including the per-edge overrides and crash schedule.
void mix_fault_plan(Fnv1a& h, const FaultPlan& plan);

/// Cache address: instance half × parameter half. Kept as two words so
/// collisions would need both 64-bit halves to agree.
struct CacheKey {
  std::uint64_t instance_digest = 0;
  std::uint64_t params_digest = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // splitmix-style fold of the two halves into one table index.
    std::uint64_t s = k.instance_digest ^ (0x9e3779b97f4a7c15ULL * (k.params_digest + 1));
    return static_cast<std::size_t>(splitmix64(s));
  }
};

/// Appends the fixed-width lowercase-hex rendering of the folded key (16
/// digits), used in response lines so a log line names its cache address.
void append_hex(std::string& out, const CacheKey& key);

}  // namespace dasm::svc
