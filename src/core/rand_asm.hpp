// RandASM (§5.1, Theorem 5): ASM with the Israeli–Itai randomized maximal
// matching truncated to a Corollary-1 budget, so that by a union bound
// every Step-3 subcall is maximal with probability at least
// 1 - failure_prob and the whole execution inherits ASM's approximation
// guarantee. Total scheduled rounds: O(eps^-3 log^2(n / (failure_prob
// eps^3))).
#pragma once

#include <cstdint>

#include "core/engine.hpp"

namespace dasm::core {

struct RandAsmParams {
  double epsilon = 0.25;
  /// Probability that some maximal-matching subcall is truncated before
  /// reaching maximality (delta in Theorem 5).
  double failure_prob = 0.05;
  std::uint64_t seed = 1;
  /// Assumed per-iteration survival factor c of Lemma 8 (measured by
  /// bench E5; the default is conservative).
  double decay = 0.75;
  bool trim_quiescent_phases = true;
  /// Must stay 1; any other value is a CheckError (see
  /// AsmParams::threads). The field remains only because
  /// servebench/replay.cpp, which is frozen together with the benchmark,
  /// assigns it.
  int threads = 1;
  /// See AsmParams::net_trace_events.
  std::size_t net_trace_events = 0;
  /// See AsmParams::obs_sink / obs_blocking_pairs: the observability
  /// recorder (src/obs/), passed through to the underlying ASM engine.
  obs::TraceSink* obs_sink = nullptr;
  bool obs_blocking_pairs = false;
  /// See AsmParams::metrics: the wall-clock metrics registry, passed
  /// through to the underlying ASM engine.
  obs::MetricsRegistry* metrics = nullptr;
  /// See AsmParams::fault_plan / retransmit_after / max_retransmits:
  /// fault injection and the reliability sublayer, passed through to the
  /// underlying ASM engine.
  FaultPlan fault_plan;
  int retransmit_after = 0;
  int max_retransmits = 64;
};

/// The Corollary-1 iteration budget RandASM gives each maximal-matching
/// subcall, after union-bounding failure_prob across the whole schedule.
int rand_asm_mm_budget(const Instance& inst, const RandAsmParams& params);

AsmResult run_rand_asm(const Instance& inst, const RandAsmParams& params);

}  // namespace dasm::core
