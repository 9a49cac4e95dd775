// Resolution of AsmParams into the concrete loop bounds of Algorithm 3 and
// the round-accounting formulas of Theorem 4 / Theorem 5.
#pragma once

#include <cstdint>

#include "core/params.hpp"

namespace dasm::core {

struct Schedule {
  NodeId k = 0;                       ///< quantile count, ceil(8/eps)
  double delta = 0.0;                 ///< eps / 8
  int outer = 0;                      ///< outer iterations (i = 0..log n)
  std::int64_t inner = 0;             ///< QuantileMatch calls per outer iter
  int mm_budget_iterations = 0;       ///< 0 = run MM to quiescence
  /// 4 for Israeli–Itai, 3 for pointer-greedy and random-priority, one
  /// class pass (color_class_rounds_per_iteration) for color-class.
  int mm_rounds_per_iteration = 0;

  /// QuantileMatch calls in the full schedule: outer * inner.
  std::int64_t scheduled_quantile_matches() const;
  /// ProposalRounds in the full schedule: outer * inner * k.
  std::int64_t scheduled_proposal_rounds() const;
  /// Communication rounds per ProposalRound under a fixed MM budget:
  /// 3 + budget * rounds_per_iteration (propose, accept, MM, reject).
  std::int64_t rounds_per_proposal_round() const;
  /// Total communication rounds of the fixed schedule.
  std::int64_t scheduled_rounds() const;

  /// Theorem 4's deterministic bound with the HKP subroutine normalized
  /// in: scheduled_proposal_rounds * (3 + ceil(log2 n)^4). Reported for
  /// reference since this library substitutes the HKP black box (see
  /// DESIGN.md).
  std::int64_t hkp_normalized_rounds(NodeId n) const;
};

/// Resolves params against an instance with n_men men and n_women women:
/// the loop bounds use n = max(n_men, n_women) players per side, and the
/// color-class backend's class pass is sized by the node count
/// n_men + n_women, the id bound its nodes get. Validates every override.
Schedule resolve_schedule(const AsmParams& params, NodeId n_men,
                          NodeId n_women);

}  // namespace dasm::core
