// Algorithm 1 (ProposalRound) and its embedded Step-3 maximal matching.
#include "core/engine.hpp"

#include "util/check.hpp"

namespace dasm::core {

int AsmEngine::run_mm_phase() {
  const auto& bg = inst_->graph();
  const int rpi = sched_.mm_rounds_per_iteration;
  // With no explicit budget the subroutine runs to quiescence; the cap
  // only guards against protocol bugs (pointer-greedy matches at least
  // one edge per sweep, and Israeli–Itai exceeding this is a
  // probability-zero event for any practical input).
  const int cap = sched_.mm_budget_iterations > 0
                      ? sched_.mm_budget_iterations
                      : 2 * (inst_->n_men() + inst_->n_women()) + 16;

  auto all_quiescent = [&]() {
    for (const auto& man : men_) {
      if (!man.mm_quiescent()) return false;
    }
    for (const auto& woman : women_) {
      if (!woman.mm_quiescent()) return false;
    }
    return true;
  };

  // The span index ties the subcall to its ProposalRound (already
  // counted by the time Step 3 runs).
  rec_.begin_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                  net_.stats());
  int iterations = 0;
  for (; iterations < cap; ++iterations) {
    if (iterations > 0 && all_quiescent()) break;
    rec_.begin_span(obs::Phase::kMmIteration, iterations, net_.stats());
    for (int r = 0; r < rpi; ++r) {
      const bool first = iterations == 0 && r == 0;
      net_.begin_round();
      for_each_man([&](NodeId m) {
        auto& man = men_[static_cast<std::size_t>(m)];
        const auto inbox = net_.inbox(bg.man_id(m));
        first ? man.mm_first_round(inbox, net_) : man.mm_round(inbox, net_);
      });
      for_each_woman([&](NodeId w) {
        auto& woman = women_[static_cast<std::size_t>(w)];
        const auto inbox = net_.inbox(bg.woman_id(w));
        first ? woman.mm_first_round(inbox, net_)
              : woman.mm_round(inbox, net_);
      });
      net_.end_round();
      ++mm_rounds_executed_;
    }
    rec_.end_span(obs::Phase::kMmIteration, iterations, net_.stats());
  }
  rec_.end_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                net_.stats());
  DASM_CHECK_MSG(sched_.mm_budget_iterations > 0 || all_quiescent(),
                 "maximal matching failed to converge within the safety cap");
  // Charge the unused part of a fixed budget to the paper schedule: a
  // fixed-schedule CONGEST execution always burns the full budget.
  if (sched_.mm_budget_iterations > 0) {
    net_.charge_scheduled_rounds(
        static_cast<std::int64_t>(sched_.mm_budget_iterations - iterations) *
        rpi);
  }
  mm_iterations_peak_ = std::max(mm_iterations_peak_, iterations);
  return iterations;
}

bool AsmEngine::run_proposal_round() {
  const auto& bg = inst_->graph();
  const std::int64_t msgs_before = net_.stats().messages;

  // Step 1: men propose to their active sets.
  net_.begin_round();
  for_each_man(
      [&](NodeId m) { men_[static_cast<std::size_t>(m)].propose_round(net_); });
  net_.end_round();
  ++proposal_rounds_executed_;

  const bool any_proposals = net_.stats().messages > msgs_before;
  if (!any_proposals && params_.trim_quiescent_phases) {
    // No proposals means an empty G0: the accept round, the MM subcall
    // and the reject round would all be silent. Charge them as scheduled.
    net_.charge_scheduled_rounds(sched_.rounds_per_proposal_round() - 1);
    return false;
  }

  // Step 2: women accept their best proposing quantile.
  net_.begin_round();
  for_each_woman([&](NodeId w) {
    women_[static_cast<std::size_t>(w)].accept_round(net_.inbox(bg.woman_id(w)),
                                                     net_);
  });
  net_.end_round();

  // Step 3: maximal matching on the accepted-proposal graph G0.
  run_mm_phase();

  // Step 4: adopt M0 partners; matched women reject and prune. Step 5 is
  // the men's local processing of those rejections, performed right after
  // delivery (equivalent to processing them at the start of their next
  // round, which is when a real processor would act on them).
  net_.begin_round();
  for_each_man([&](NodeId m) {
    auto& man = men_[static_cast<std::size_t>(m)];
    man.resolve_round();
    if (params_.drop_unsatisfied_men) man.drop_if_unsatisfied();
  });
  for_each_woman([&](NodeId w) {
    women_[static_cast<std::size_t>(w)].resolve_round(net_);
  });
  net_.end_round();
  for_each_man([&](NodeId m) {
    men_[static_cast<std::size_t>(m)].finalize(net_.inbox(bg.man_id(m)));
  });

  return net_.stats().messages > msgs_before;
}

}  // namespace dasm::core
