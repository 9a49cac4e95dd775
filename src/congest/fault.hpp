// Deterministic fault injection for the CONGEST simulator (DESIGN.md §8).
//
// The paper analyzes ASM on a reliable synchronous network; a FaultPlan
// describes how an unreliable one misbehaves: per-edge message loss,
// duplication, bounded delay (which induces reordering across rounds), and
// crash-stop node failures at scheduled rounds. The Network consults the
// plan on every send and in end_round().
//
// Determinism contract: every fault decision is drawn from a counter-based
// PRNG keyed on (plan seed, wire round, directed edge, copy id) — never
// from a wall clock, iteration order, or shared mutable generator state.
// A run is serial and sends in node-id-major order, so the same seed and
// plan yield byte-identical inboxes, NetStats, and traces.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/types.hpp"
#include "util/prng.hpp"

namespace dasm {

/// Crash-stop failure: from wire round `round` onward (0-based, counted in
/// NetStats::executed_rounds), `node` neither sends nor receives. Failed
/// nodes keep executing locally — only their communication dies, which is
/// exactly the crash-stop model seen from every other processor.
struct CrashEvent {
  Round round = 0;
  NodeId node = kNoNode;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// Per-directed-edge drop-probability override (takes precedence over
/// FaultPlan::drop for copies traversing (from -> to)).
struct EdgeDrop {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  double drop = 0.0;

  friend bool operator==(const EdgeDrop&, const EdgeDrop&) = default;
};

/// A seeded description of network misbehaviour. Default-constructed plans
/// are inactive (a perfectly reliable network).
struct FaultPlan {
  /// Root seed of the counter-based fault PRNG. Two executions with the
  /// same plan (seed included) make identical fault decisions.
  std::uint64_t seed = 0;

  /// Probability that a wire copy is lost in transit. Applies per copy:
  /// a retransmission re-rolls with fresh randomness.
  double drop = 0.0;

  /// Probability that a delivered copy is duplicated: the extra copy
  /// arrives 1..max(1, max_delay) rounds later and re-rolls its own loss
  /// and delay (duplicates never duplicate again).
  double duplicate = 0.0;

  /// Probability that a copy is delayed by a uniform 1..max_delay rounds
  /// instead of arriving in its send round — the bounded-reorder fault:
  /// a delayed copy arrives after copies sent in later rounds.
  double delay = 0.0;
  int max_delay = 0;

  /// Per-directed-edge drop overrides (lossy links).
  std::vector<EdgeDrop> edge_drops;

  /// Crash-stop schedule, applied at wire-round granularity.
  std::vector<CrashEvent> crashes;

  /// True when the plan injects any fault at all.
  bool active() const {
    return drop > 0.0 || duplicate > 0.0 || (delay > 0.0 && max_delay > 0) ||
           !edge_drops.empty() || !crashes.empty();
  }

  /// CHECKs every probability is in [0, 1] and every delay/round bound is
  /// sane. Network::set_fault_plan calls this.
  void validate() const;
};

/// Counter-based fault PRNG: a pure function of (seed, round, edge, copy),
/// so decisions are independent of evaluation order. Distinct decision
/// kinds perturb `seed` with distinct salts.
inline std::uint64_t fault_mix(std::uint64_t seed, std::uint64_t round,
                               std::uint64_t edge_key, std::uint64_t copy_id) {
  std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (round + 1);
  s = splitmix64(s) ^ (0xbf58476d1ce4e5b9ULL * (edge_key + 1));
  s = splitmix64(s) ^ (0x94d049bb133111ebULL * (copy_id + 1));
  return splitmix64(s);
}

/// Salts separating the decision streams of one wire copy.
inline constexpr std::uint64_t kFaultDropSalt = 0x7c15d1ce4e5b9ULL;
inline constexpr std::uint64_t kFaultDelaySalt = 0x1b873593cc9e2ULL;
inline constexpr std::uint64_t kFaultDelayAmountSalt = 0x52dce729e6546ULL;
inline constexpr std::uint64_t kFaultDuplicateSalt = 0x38495ab5a52e3ULL;
inline constexpr std::uint64_t kFaultAckSalt = 0x632be59bd9b4eULL;

/// Maps a probability to the u64 threshold t with P[u < t] = p for a
/// uniform u64 draw u.
inline std::uint64_t probability_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  // p < 1 keeps the product strictly below 2^64, so the cast is exact
  // enough and never overflows.
  return static_cast<std::uint64_t>(p * 0x1p64);
}

}  // namespace dasm
