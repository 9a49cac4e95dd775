// AlmostRegularASM (§5.2, Theorem 6): for alpha-almost-regular preferences
// the outer degree-threshold loop is unnecessary — iterating QuantileMatch
// O(alpha eps^-2) times caps the *number* of bad men (Lemma 6), and
// alpha-regularity converts that into a blocking-pair bound directly. The
// maximal matching is further relaxed to AMM (Corollary 2), whose budget
// is independent of n, making the whole schedule O(1) rounds in n; men
// left unsatisfied by a truncated matching are removed from play
// (footnote 2).
#pragma once

#include <cstdint>

#include "core/engine.hpp"

namespace dasm::core {

struct AlmostRegularAsmParams {
  double epsilon = 0.25;
  /// Probability that the dropped-men budget is exceeded (delta in
  /// Theorem 6).
  double failure_prob = 0.05;
  std::uint64_t seed = 1;
  /// Regularity ratio alpha; 0 means measure it from the instance.
  double alpha = 0.0;
  /// Assumed Lemma-8 survival factor (see bench E5).
  double decay = 0.75;
  bool trim_quiescent_phases = true;
};

/// The AMM iteration budget per Step-3 subcall (Corollary 2 with eta and
/// delta' union-bounded across the schedule).
int almost_regular_mm_budget(const Instance& inst,
                             const AlmostRegularAsmParams& params);

AsmResult run_almost_regular_asm(const Instance& inst,
                                 const AlmostRegularAsmParams& params);

}  // namespace dasm::core
