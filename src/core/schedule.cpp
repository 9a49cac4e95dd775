#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "mm/color_class_node.hpp"
#include "util/check.hpp"

namespace dasm::core {

std::int64_t Schedule::scheduled_quantile_matches() const {
  return static_cast<std::int64_t>(outer) * inner;
}

std::int64_t Schedule::scheduled_proposal_rounds() const {
  return scheduled_quantile_matches() * k;
}

std::int64_t Schedule::rounds_per_proposal_round() const {
  return 3 + static_cast<std::int64_t>(mm_budget_iterations) *
                 mm_rounds_per_iteration;
}

std::int64_t Schedule::scheduled_rounds() const {
  return scheduled_proposal_rounds() * rounds_per_proposal_round();
}

std::int64_t Schedule::hkp_normalized_rounds(NodeId n) const {
  const auto log_n = static_cast<std::int64_t>(
      std::ceil(std::log2(std::max<double>(2.0, n))));
  const std::int64_t mm = log_n * log_n * log_n * log_n;
  return scheduled_proposal_rounds() * (3 + mm);
}

Schedule resolve_schedule(const AsmParams& params, NodeId n_men,
                          NodeId n_women) {
  const NodeId n = std::max(n_men, n_women);
  DASM_CHECK(n >= 1);
  DASM_CHECK_MSG(params.epsilon > 0.0 && params.epsilon <= 1.0,
                 "epsilon must be in (0, 1], got " << params.epsilon);
  Schedule s;

  s.k = params.k > 0
            ? params.k
            : static_cast<NodeId>(std::ceil(8.0 / params.epsilon));
  DASM_CHECK(s.k >= 1);

  s.delta = params.delta > 0.0 ? params.delta : params.epsilon / 8.0;
  DASM_CHECK_MSG(s.delta > 0.0 && s.delta <= 0.5,
                 "delta must be in (0, 1/2] (Lemma 5), got " << s.delta);

  s.inner = params.inner_iterations > 0
                ? params.inner_iterations
                : static_cast<std::int64_t>(
                      std::ceil(2.0 / s.delta)) * s.k;
  DASM_CHECK(s.inner >= 1);

  s.outer = params.outer_iterations > 0
                ? params.outer_iterations
                : static_cast<int>(std::floor(std::log2(
                      std::max<double>(1.0, n)))) + 1;
  DASM_CHECK(s.outer >= 1);

  s.mm_budget_iterations = params.mm_iteration_budget;
  DASM_CHECK(s.mm_budget_iterations >= 0);
  switch (params.mm_backend) {
    case mm::Backend::kPointerGreedy:
    case mm::Backend::kRandomPriority:
      s.mm_rounds_per_iteration = 3;
      break;
    case mm::Backend::kIsraeliItai:
      s.mm_rounds_per_iteration = 4;
      break;
    case mm::Backend::kColorClass:
      s.mm_rounds_per_iteration =
          mm::color_class_rounds_per_iteration(n_men + n_women);
      break;
  }
  return s;
}

}  // namespace dasm::core
