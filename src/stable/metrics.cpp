#include "stable/metrics.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"

namespace dasm {

namespace {

// One side's contribution: rank sum, regret maximum, matched/unmatched
// tallies.
struct SideTotals {
  std::int64_t matched = 0;
  std::int64_t unmatched = 0;
  std::int64_t rank_sum = 0;
  std::int64_t regret = 0;
};

}  // namespace

double MatchingMetrics::mean_man_rank() const {
  if (matched_pairs == 0) return 0.0;
  return static_cast<double>(men_rank_sum) /
         static_cast<double>(matched_pairs);
}

double MatchingMetrics::mean_woman_rank() const {
  if (matched_pairs == 0) return 0.0;
  return static_cast<double>(women_rank_sum) /
         static_cast<double>(matched_pairs);
}

MatchingMetrics compute_metrics(const Instance& inst,
                                const Matching& matching) {
  DASM_CHECK(matching.node_count() == inst.graph().node_count());
  const auto& bg = inst.graph();

  SideTotals men;
  for (NodeId man = 0; man < inst.n_men(); ++man) {
    const NodeId partner_node = matching.partner_of(bg.man_id(man));
    if (partner_node == kNoNode) {
      ++men.unmatched;
      continue;
    }
    const NodeId woman = bg.woman_index(partner_node);
    const NodeId r = inst.man_pref(man).rank_of(woman);
    DASM_CHECK_MSG(r != kNoNode,
                   "man " << man << " matched to unranked woman " << woman);
    ++men.matched;
    men.rank_sum += r + 1;
    men.regret = std::max<std::int64_t>(men.regret, r + 1);
  }

  SideTotals women;
  for (NodeId woman = 0; woman < inst.n_women(); ++woman) {
    const NodeId partner_node = matching.partner_of(bg.woman_id(woman));
    if (partner_node == kNoNode) {
      ++women.unmatched;
      continue;
    }
    const NodeId man = bg.man_index(partner_node);
    const NodeId r = inst.woman_pref(woman).rank_of(man);
    DASM_CHECK_MSG(r != kNoNode,
                   "woman " << woman << " matched to unranked man " << man);
    ++women.matched;
    women.rank_sum += r + 1;
    women.regret = std::max<std::int64_t>(women.regret, r + 1);
  }

  MatchingMetrics m;
  m.matched_pairs = men.matched;
  m.unmatched_men = men.unmatched;
  m.unmatched_women = women.unmatched;
  m.men_rank_sum = men.rank_sum;
  m.women_rank_sum = women.rank_sum;
  m.men_regret = men.regret;
  m.women_regret = women.regret;
  m.egalitarian_cost = m.men_rank_sum + m.women_rank_sum;
  m.sex_equality_cost = std::llabs(m.men_rank_sum - m.women_rank_sum);
  return m;
}

}  // namespace dasm
