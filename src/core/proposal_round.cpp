// Algorithm 1 (ProposalRound) and its embedded Step-3 maximal matching.
//
// Each step calls only the players it can reach (DESIGN.md §2): the men
// who would propose, the women their proposals reached, the members of
// the accepted-proposal graph G0, and the men a rejection reached. Any
// other call would send nothing and change nothing a later call reads,
// so skipping it changes no send, inbox, trace or statistic.
#include "core/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::core {

int AsmEngine::run_mm_phase() {
  const NodeId n_men = inst_->n_men();
  const int rpi = sched_.mm_rounds_per_iteration;
  // With no explicit budget the subroutine runs to quiescence; the cap
  // only guards against protocol bugs (pointer-greedy matches at least
  // one edge per sweep, and Israeli–Itai exceeding this is a
  // probability-zero event for any practical input).
  const int cap = sched_.mm_budget_iterations > 0
                      ? sched_.mm_budget_iterations
                      : 2 * (inst_->n_men() + inst_->n_women()) + 16;

  // Players outside G0 have no neighbours in this execution, so they
  // would be quiescent from its first round on: the subroutine steps the
  // G0 members, and from each iteration boundary on only those still live
  // (mm::Node promises a quiescent node sends nothing and draws nothing).
  mm_live_.clear();
  for (const NodeId m : g0_men_) mm_live_.push_back(m);
  for (const NodeId w : g0_women_) mm_live_.push_back(n_men + w);
  auto retire_quiescent = [&]() {
    std::erase_if(mm_live_, [&](NodeId node) {
      return node < n_men
                 ? men_[static_cast<std::size_t>(node)].mm_quiescent()
                 : women_[static_cast<std::size_t>(node - n_men)]
                       .mm_quiescent();
    });
  };

  // The span index ties the subcall to its ProposalRound (already
  // counted by the time Step 3 runs).
  rec_.begin_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                  net_.stats());
  int iterations = 0;
  for (; iterations < cap; ++iterations) {
    if (iterations > 0) {
      retire_quiescent();
      if (mm_live_.empty()) break;
    }
    rec_.begin_span(obs::Phase::kMmIteration, iterations, net_.stats());
    for (int r = 0; r < rpi; ++r) {
      const bool first = iterations == 0 && r == 0;
      net_.begin_round();
      for (const NodeId node : mm_live_) {
        const auto inbox = net_.inbox(node);
        if (node < n_men) {
          auto& man = men_[static_cast<std::size_t>(node)];
          first ? man.mm_first_round(inbox, net_) : man.mm_round(inbox, net_);
        } else {
          auto& woman = women_[static_cast<std::size_t>(node - n_men)];
          first ? woman.mm_first_round(inbox, net_)
                : woman.mm_round(inbox, net_);
        }
      }
      net_.end_round();
      ++mm_rounds_executed_;
    }
    rec_.end_span(obs::Phase::kMmIteration, iterations, net_.stats());
  }
  rec_.end_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                net_.stats());
  retire_quiescent();
  DASM_CHECK_MSG(sched_.mm_budget_iterations > 0 || mm_live_.empty(),
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
  const NodeId n_men = inst_->n_men();
  const std::int64_t msgs_before = net_.stats().messages;
  // The last round's receivers in ascending id order (men before women),
  // the order the players send in.
  auto sort_receivers = [&]() {
    const auto received = net_.receivers();
    receivers_.assign(received.begin(), received.end());
    std::sort(receivers_.begin(), receivers_.end());
  };

  // Step 1: men propose to their active sets.
  net_.begin_round();
  for (const NodeId m : proposers_) {
    men_[static_cast<std::size_t>(m)].propose_round(net_);
  }
  net_.end_round();
  ++proposal_rounds_executed_;

  const bool any_proposals = net_.stats().messages > msgs_before;
  if (!any_proposals && params_.trim_quiescent_phases) {
    // No proposals means an empty G0: the accept round, the MM subcall
    // and the reject round would all be silent. Charge them as scheduled.
    net_.charge_scheduled_rounds(sched_.rounds_per_proposal_round() - 1);
    return false;
  }

  // Step 2: the women a proposal reached accept their best proposing
  // quantile; those who accepted someone are G0's women.
  sort_receivers();
  g0_women_.clear();
  net_.begin_round();
  for (const NodeId node : receivers_) {
    if (node < n_men) continue;
    const NodeId w = node - n_men;
    auto& woman = women_[static_cast<std::size_t>(w)];
    woman.accept_round(net_.inbox(node), net_);
    if (woman.accepted_any()) g0_women_.push_back(w);
  }
  net_.end_round();

  // Step 3: maximal matching on the accepted-proposal graph G0, whose men
  // are the ones an ACCEPT (or any other message) just reached.
  sort_receivers();
  g0_men_.clear();
  for (const NodeId node : receivers_) {
    if (node < n_men) g0_men_.push_back(node);
  }
  run_mm_phase();

  // Step 4: adopt M0 partners; matched women reject and prune. Step 5 is
  // the men's local processing of those rejections, performed right after
  // delivery (equivalent to processing them at the start of their next
  // round, which is when a real processor would act on them).
  net_.begin_round();
  for (const NodeId m : g0_men_) {
    auto& man = men_[static_cast<std::size_t>(m)];
    man.resolve_round();
    if (params_.drop_unsatisfied_men) man.drop_if_unsatisfied();
  }
  for (const NodeId w : g0_women_) {
    women_[static_cast<std::size_t>(w)].resolve_round(net_);
  }
  net_.end_round();
  // Step 5 sends nothing, so the receivers need no order.
  for (const NodeId node : net_.receivers()) {
    if (node < n_men) {
      men_[static_cast<std::size_t>(node)].finalize(net_.inbox(node));
    }
  }

  return net_.stats().messages > msgs_before;
}

}  // namespace dasm::core
