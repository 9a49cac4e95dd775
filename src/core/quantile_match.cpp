// Algorithm 2 (QuantileMatch): k ProposalRounds after refilling the men's
// active sets from their best nonempty quantile.
#include "core/engine.hpp"

namespace dasm::core {

bool AsmEngine::run_quantile_match() {
  for (auto& man : men_) man.begin_quantile_match();

  bool any_message = false;
  for (NodeId pr = 0; pr < sched_.k; ++pr) {
    // Step 1 of the coming ProposalRound calls exactly these men.
    proposers_.clear();
    for (NodeId m = 0; m < inst_->n_men(); ++m) {
      if (men_[static_cast<std::size_t>(m)].would_propose()) {
        proposers_.push_back(m);
      }
    }
    if (params_.trim_quiescent_phases && proposers_.empty()) {
      // Within one QuantileMatch the active sets only shrink and a man
      // only loses his partner when some other man's proposal displaces
      // him, so once nobody would propose the remaining ProposalRounds
      // are provably silent (Lemma 2's argument).
      net_.charge_scheduled_rounds(static_cast<std::int64_t>(sched_.k - pr) *
                                   sched_.rounds_per_proposal_round());
      break;
    }
    rec_.begin_span(obs::Phase::kProposalRound, pr, net_.stats());
    any_message |= run_proposal_round();
    rec_.end_span(obs::Phase::kProposalRound, pr, net_.stats());
    if (round_budget_exhausted()) break;
  }
  ++quantile_matches_executed_;
  return any_message;
}

}  // namespace dasm::core
