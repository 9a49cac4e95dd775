// The deterministic ASM algorithm (Algorithms 1-3): the Theorem-3
// approximation guarantee, Lemma 3, and execution-model properties.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.hpp"
#include "obs/trace.hpp"
#include "stable/blocking.hpp"
#include "stable/gale_shapley.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

struct Case {
  const char* family;
  double epsilon;
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.family << "/eps=" << c.epsilon << "/seed=" << c.seed;
}

Instance make_instance(const Case& c, NodeId n) {
  const std::string family = c.family;
  if (family == "complete") return gen::complete_uniform(n, c.seed);
  if (family == "incomplete")
    return gen::incomplete_uniform(n, n, 0.2, c.seed);
  if (family == "regular")
    return gen::regular_bipartite(n, std::min<NodeId>(n, 8), c.seed);
  if (family == "master") return gen::master_list(n, n, c.seed);
  if (family == "almost_regular")
    return gen::almost_regular(n, 4, 12, c.seed);
  DASM_CHECK_MSG(false, "unknown family " << family);
  return gen::complete_uniform(n, c.seed);
}

class AsmTheorem3 : public ::testing::TestWithParam<Case> {};

TEST_P(AsmTheorem3, OutputIsAlmostStable) {
  const Case c = GetParam();
  const Instance inst = make_instance(c, 64);
  AsmParams params;
  params.epsilon = c.epsilon;
  const AsmResult r = run_asm(inst, params);

  validate_matching(inst, r.matching);
  EXPECT_EQ(r.good_count + r.bad_count, inst.n_men());

  const auto blocking = count_blocking_pairs(inst, r.matching);
  EXPECT_LE(static_cast<double>(blocking),
            c.epsilon * static_cast<double>(inst.edge_count()))
      << blocking << " blocking pairs on " << inst.edge_count() << " edges";
}

TEST_P(AsmTheorem3, GoodMenAreNotInTwoOverKBlockingPairs) {
  // Lemma 3: no good man is incident with a (2/k)-blocking pair.
  const Case c = GetParam();
  const Instance inst = make_instance(c, 48);
  AsmParams params;
  params.epsilon = c.epsilon;
  const AsmResult r = run_asm(inst, params);
  const double two_over_k = 2.0 / static_cast<double>(r.schedule.k);
  EXPECT_EQ(count_eps_blocking_pairs_among(inst, r.matching, two_over_k,
                                           r.good_men),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndEps, AsmTheorem3,
    ::testing::Values(Case{"complete", 0.5, 1}, Case{"complete", 0.25, 2},
                      Case{"complete", 0.125, 3}, Case{"incomplete", 0.5, 1},
                      Case{"incomplete", 0.25, 2},
                      Case{"incomplete", 0.125, 3}, Case{"regular", 0.5, 1},
                      Case{"regular", 0.25, 2}, Case{"regular", 0.125, 3},
                      Case{"master", 0.25, 1}, Case{"master", 0.125, 2},
                      Case{"almost_regular", 0.25, 1},
                      Case{"almost_regular", 0.125, 2}));

TEST(Asm, DeterministicallyReproducible) {
  const Instance inst = gen::complete_uniform(40, 5);
  AsmParams params;
  const AsmResult a = run_asm(inst, params);
  const AsmResult b = run_asm(inst, params);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.net.executed_rounds, b.net.executed_rounds);
  EXPECT_EQ(a.net.messages, b.net.messages);
  EXPECT_EQ(a.good_count, b.good_count);
}

TEST(Asm, TrimmingDoesNotChangeTheDeterministicExecution) {
  // With trimming off the engine walks the complete paper schedule round
  // by round; with trimming on it skips provably silent phases. For the
  // deterministic backend the outcome and traffic must be identical.
  const Instance inst = gen::complete_uniform(16, 11);
  AsmParams trimmed;
  trimmed.epsilon = 0.5;
  trimmed.inner_iterations = 24;  // keep the untrimmed run affordable
  trimmed.outer_iterations = 2;
  AsmParams full = trimmed;
  full.trim_quiescent_phases = false;

  const AsmResult a = run_asm(inst, trimmed);
  const AsmResult b = run_asm(inst, full);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.net.messages, b.net.messages);
  EXPECT_EQ(a.net.bits, b.net.bits);
  EXPECT_EQ(a.good_count, b.good_count);
  // The untrimmed run executes every scheduled round.
  EXPECT_GE(b.net.executed_rounds, a.net.executed_rounds);
  EXPECT_EQ(b.net.executed_rounds, b.net.scheduled_rounds);
}

TEST(Asm, SingletonQuantilesMimicGaleShapley) {
  // §3.2: with k >= deg(v) every quantile is a single partner and
  // ProposalRound degenerates to the classical algorithm; the schedule is
  // long enough for every man to end good, so the output is fully stable
  // and man-optimal.
  const Instance inst = gen::complete_uniform(16, 13);
  AsmParams params;
  params.epsilon = 0.5;
  params.k = 16;
  const AsmResult r = run_asm(inst, params);
  EXPECT_EQ(r.bad_count, 0);
  EXPECT_TRUE(is_stable(inst, r.matching));
  EXPECT_EQ(r.matching, gale_shapley(inst).matching);
}

TEST(Asm, MessagesRespectCongestBudget) {
  const Instance inst = gen::complete_uniform(64, 3);
  AsmParams params;
  const AsmResult r = run_asm(inst, params);
  EXPECT_LE(r.net.max_message_bits,
            8 * static_cast<int>(std::ceil(std::log2(128 + 2))) + 8);
}

TEST(Asm, TraceRecordsEveryQuantileMatch) {
  const Instance inst = gen::complete_uniform(24, 7);
  obs::MemorySink sink;
  AsmParams params;
  params.obs_sink = &sink;
  const AsmResult r = run_asm(inst, params);
  const auto rows = obs::convergence_rows(sink);
  ASSERT_EQ(static_cast<std::int64_t>(rows.size()),
            r.quantile_matches_executed);
  for (const auto& row : rows) {
    EXPECT_GE(row.value(obs::Counter::kActiveMen),
              row.value(obs::Counter::kBadActiveMen));
    EXPECT_GE(row.value(obs::Counter::kMatchedPairs), 0);
    EXPECT_LE(row.value(obs::Counter::kMatchedPairs), 24);
  }
  // The matched count never decreases across inner iterations (Lemma 1:
  // women never lose partners, so the matching size is monotone).
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].value(obs::Counter::kMatchedPairs),
              rows[i - 1].value(obs::Counter::kMatchedPairs));
  }
}

TEST(Asm, Lemma2EveryQuantileMatchDrainsActiveSets) {
  // Lemma 2: when QuantileMatch terminates, every man's A is empty (he is
  // matched or was rejected by all of A). The counters are sampled right
  // after each completed QuantileMatch.
  for (const char* family : {"complete", "master"}) {
    const Instance inst = family == std::string("complete")
                              ? gen::complete_uniform(48, 23)
                              : gen::master_list(48, 48, 23);
    obs::MemorySink sink;
    AsmParams params;
    params.epsilon = 0.25;
    params.obs_sink = &sink;
    run_asm(inst, params);
    const auto rows = obs::convergence_rows(sink);
    ASSERT_FALSE(rows.empty());
    for (const auto& row : rows) {
      EXPECT_EQ(row.value(obs::Counter::kMenWithLiveTargets), 0)
          << "QM " << row.inner << " on " << family;
    }
  }
}

TEST(Asm, NoDroppedMenWithoutAmm) {
  const Instance inst = gen::complete_uniform(20, 9);
  const AsmResult r = run_asm(inst, AsmParams{});
  for (const bool dropped : r.dropped_men) EXPECT_FALSE(dropped);
}

TEST(Asm, HandlesDegreeZeroPlayers) {
  // Isolated players (empty preference lists) are trivially good.
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0});
  men.emplace_back(std::vector<NodeId>{});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{0});
  women.emplace_back(std::vector<NodeId>{});
  const Instance inst(std::move(men), std::move(women));
  const AsmResult r = run_asm(inst, AsmParams{});
  EXPECT_EQ(r.matching.size(), 1);
  EXPECT_EQ(r.bad_count, 0);
  EXPECT_TRUE(is_stable(inst, r.matching));
}

TEST(Asm, OneByOneInstance) {
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{0});
  const Instance inst(std::move(men), std::move(women));
  const AsmResult r = run_asm(inst, AsmParams{});
  EXPECT_EQ(r.matching.size(), 1);
  EXPECT_TRUE(is_stable(inst, r.matching));
}

TEST(Asm, SmallerEpsilonNeverLoosensTheGuarantee) {
  const Instance inst = gen::complete_uniform(48, 21);
  for (const double eps : {0.5, 0.25, 0.125}) {
    AsmParams params;
    params.epsilon = eps;
    const AsmResult r = run_asm(inst, params);
    EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
              eps * static_cast<double>(inst.edge_count()));
  }
}

TEST(Asm, RoundBudgetStopsCleanly) {
  const Instance inst = gen::complete_uniform(64, 6);
  AsmParams params;
  params.max_rounds = 30;
  const AsmResult r = run_asm(inst, params);
  // Stops at a ProposalRound boundary, so at most one round trip over.
  EXPECT_LE(r.net.executed_rounds, 30 + 16);
  validate_matching(inst, r.matching);  // state is consistent mid-run
  AsmParams unlimited;
  const AsmResult full = run_asm(inst, unlimited);
  EXPECT_GE(full.net.executed_rounds, r.net.executed_rounds);
}

TEST(Asm, WomenOnlyTradeUpAcrossBudgets) {
  // Lemma 1 (monotonicity): a woman, once matched, never does worse. The
  // deterministic engine is replayable, so the state at a larger round
  // budget is a later point of the SAME execution — every woman's partner
  // rank must improve weakly as the budget grows.
  const Instance inst = gen::complete_uniform(48, 17);
  std::vector<std::vector<NodeId>> partner_rank_at_budget;
  for (const std::int64_t budget : {15LL, 30LL, 60LL, 120LL, 0LL}) {
    AsmParams params;
    params.epsilon = 0.25;
    params.max_rounds = budget;
    const AsmResult r = run_asm(inst, params);
    std::vector<NodeId> ranks(static_cast<std::size_t>(inst.n_women()));
    for (NodeId w = 0; w < inst.n_women(); ++w) {
      const NodeId p = r.matching.partner_of(inst.graph().woman_id(w));
      ranks[static_cast<std::size_t>(w)] =
          p == kNoNode ? static_cast<NodeId>(inst.n_men())
                       : inst.woman_pref(w).rank_of(
                             inst.graph().man_index(p));
    }
    partner_rank_at_budget.push_back(std::move(ranks));
  }
  for (std::size_t b = 1; b < partner_rank_at_budget.size(); ++b) {
    for (NodeId w = 0; w < inst.n_women(); ++w) {
      EXPECT_LE(partner_rank_at_budget[b][static_cast<std::size_t>(w)],
                partner_rank_at_budget[b - 1][static_cast<std::size_t>(w)])
          << "woman " << w << " got worse between budgets";
    }
  }
}

TEST(Asm, Lemma5BadQMassBound) {
  // Lemma 5's internal inequality: at full-schedule termination,
  // sum over bad men of |Q^m| <= 2 delta / (1 - delta) * |E|.
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Instance inst = gen::incomplete_uniform(64, 64, 0.2, seed);
    AsmParams params;
    params.epsilon = 0.25;
    const AsmResult r = run_asm(inst, params);
    std::int64_t bad_q_sum = 0;
    for (NodeId m = 0; m < inst.n_men(); ++m) {
      if (!r.good_men[static_cast<std::size_t>(m)]) {
        bad_q_sum += r.final_q_size[static_cast<std::size_t>(m)];
      }
    }
    const double delta = r.schedule.delta;
    EXPECT_LE(static_cast<double>(bad_q_sum),
              2.0 * delta / (1.0 - delta) *
                  static_cast<double>(inst.edge_count()));
  }
}

TEST(Asm, ExecutedNeverExceedsScheduled) {
  const Instance inst = gen::complete_uniform(32, 2);
  const AsmResult r = run_asm(inst, AsmParams{});
  EXPECT_LE(r.net.executed_rounds, r.net.scheduled_rounds);
  EXPECT_LE(r.proposal_rounds_executed,
            r.schedule.scheduled_proposal_rounds());
  EXPECT_LE(r.quantile_matches_executed,
            r.schedule.scheduled_quantile_matches());
}

}  // namespace
}  // namespace dasm::core
