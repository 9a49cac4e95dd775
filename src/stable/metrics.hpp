// Rank-based quality metrics for matchings — the standard vocabulary of
// the stable-matching literature (cf. Gusfield–Irving [5], Manlove [10]):
// per-side average partner rank, egalitarian cost, sex-equality cost, and
// regret. Used by the examples and experiment harness to show *which*
// almost-stable matching the algorithms settle on, beyond the count of
// blocking pairs.
#pragma once

#include <cstdint>

#include "graph/matching.hpp"
#include "stable/instance.hpp"

namespace dasm {

struct MatchingMetrics {
  std::int64_t matched_pairs = 0;
  std::int64_t unmatched_men = 0;
  std::int64_t unmatched_women = 0;

  /// Sum over matched men of the 1-based rank of their partner.
  std::int64_t men_rank_sum = 0;
  /// Sum over matched women of the 1-based rank of their partner.
  std::int64_t women_rank_sum = 0;

  /// Egalitarian cost: men_rank_sum + women_rank_sum.
  std::int64_t egalitarian_cost = 0;
  /// Sex-equality cost: |men_rank_sum - women_rank_sum|. Small values mean
  /// the matching does not systematically favour one side.
  std::int64_t sex_equality_cost = 0;

  /// Worst 1-based rank any matched man / woman receives (regret).
  std::int64_t men_regret = 0;
  std::int64_t women_regret = 0;

  double mean_man_rank() const;
  double mean_woman_rank() const;
};

/// Computes all metrics in one pass. The matching must be valid for the
/// instance (pairs are mutually acceptable).
MatchingMetrics compute_metrics(const Instance& inst, const Matching& matching);

}  // namespace dasm
