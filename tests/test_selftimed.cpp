// Self-timed execution vs. the orchestrated engine: the two must produce
// identical matchings, traffic, and good/bad partitions, which justifies
// the engine's (trimmed) driving everywhere else. Self-timed steps every
// processor every round while the engine and mm::run_maximal_matching
// step only the nodes a round can reach, so this file also pins the
// mm::Node quiescence contract (mm/node.hpp) that the skipping relies on.
#include "core/selftimed.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "mm/run_context.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

AsmParams small_schedule(mm::Backend backend, std::uint64_t seed) {
  AsmParams p;
  p.epsilon = 0.5;
  p.mm_backend = backend;
  p.seed = seed;
  p.mm_iteration_budget = 6;   // self-timed requires a fixed budget
  p.inner_iterations = 12;     // keep the full schedule affordable
  p.outer_iterations = 2;
  return p;
}

// --------------------------------------------------------- phase script

TEST(PhaseScript, EnumeratesTheRoundStructure) {
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, 1);
  const Schedule sched = resolve_schedule(p, 16, 16);
  const PhaseScript script(sched);
  // 2 outer x 12 inner x k PRs x (3 + 6*4) rounds.
  EXPECT_EQ(script.total_rounds(),
            2LL * 12 * sched.k * (3 + 6 * 4));

  const Phase first = script.at(0);
  EXPECT_EQ(first.kind, PhaseKind::kPropose);
  EXPECT_TRUE(first.quantile_match_start);
  EXPECT_EQ(first.outer, 0);

  EXPECT_EQ(script.at(1).kind, PhaseKind::kAccept);
  EXPECT_EQ(script.at(2).kind, PhaseKind::kMmRound);
  EXPECT_EQ(script.at(2).mm_round, 0);
  EXPECT_EQ(script.at(25).kind, PhaseKind::kMmRound);
  EXPECT_EQ(script.at(25).mm_round, 23);
  EXPECT_EQ(script.at(26).kind, PhaseKind::kResolve);

  // The second ProposalRound of the first QuantileMatch is NOT a QM start.
  const Phase second_pr = script.at(27);
  EXPECT_EQ(second_pr.kind, PhaseKind::kPropose);
  EXPECT_FALSE(second_pr.quantile_match_start);

  // The first round of the second outer iteration.
  const std::int64_t half = script.total_rounds() / 2;
  EXPECT_EQ(script.at(half).outer, 1);
  EXPECT_EQ(script.at(half).kind, PhaseKind::kPropose);
  EXPECT_TRUE(script.at(half).quantile_match_start);

  EXPECT_THROW(script.at(-1), CheckError);
  EXPECT_THROW(script.at(script.total_rounds()), CheckError);
}

TEST(PhaseScript, RejectsRunToQuiescenceSchedules) {
  AsmParams p;
  p.mm_iteration_budget = 0;
  const Schedule sched = resolve_schedule(p, 8, 8);
  EXPECT_THROW(PhaseScript{sched}, CheckError);
}

TEST(PhaseScript, PhaseKindNames) {
  EXPECT_STREQ(to_string(PhaseKind::kPropose), "propose");
  EXPECT_STREQ(to_string(PhaseKind::kMmRound), "mm");
}

// ------------------------------------------------- engine equivalence

class SelfTimedEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SelfTimedEquivalence, MatchesTheUntrimmedEngineExactly) {
  const Instance inst = gen::complete_uniform(12, GetParam());
  for (const auto backend :
       {mm::Backend::kIsraeliItai, mm::Backend::kRandomPriority,
        mm::Backend::kPointerGreedy, mm::Backend::kColorClass}) {
    AsmParams p = small_schedule(backend, GetParam() * 7 + 1);
    const SelfTimedResult self_timed = run_selftimed_asm(inst, p);

    AsmParams engine_params = p;
    engine_params.trim_quiescent_phases = false;
    const AsmResult engine = run_asm(inst, engine_params);

    EXPECT_EQ(self_timed.matching, engine.matching)
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(self_timed.net.messages, engine.net.messages);
    EXPECT_EQ(self_timed.net.bits, engine.net.bits);
    EXPECT_EQ(self_timed.good_men, engine.good_men);
    // Self-timed executes every scheduled round; the engine may finish a
    // quiescent MM subcall early (a silent, state-equivalent shortcut).
    EXPECT_GE(self_timed.net.executed_rounds, engine.net.executed_rounds);
    EXPECT_EQ(self_timed.net.executed_rounds,
              self_timed.schedule.scheduled_rounds());
  }
}

TEST_P(SelfTimedEquivalence, MatchesTrimmedEngineOutcome) {
  // Trimming never changes the outcome, so self-timed must also agree
  // with the default (trimmed) engine.
  const Instance inst = gen::regular_bipartite(16, 4, GetParam());
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, GetParam());
  const SelfTimedResult self_timed = run_selftimed_asm(inst, p);
  const AsmResult engine = run_asm(inst, p);
  EXPECT_EQ(self_timed.matching, engine.matching);
  EXPECT_EQ(self_timed.net.messages, engine.net.messages);
  EXPECT_EQ(self_timed.good_men, engine.good_men);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfTimedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SelfTimed, SatisfiesTheoremThree) {
  const Instance inst = gen::complete_uniform(16, 9);
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, 3);
  const SelfTimedResult r = run_selftimed_asm(inst, p);
  validate_matching(inst, r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
            p.epsilon * static_cast<double>(inst.edge_count()));
}

TEST(SelfTimed, RequiresFixedBudget) {
  const Instance inst = gen::complete_uniform(8, 1);
  AsmParams p;
  p.mm_iteration_budget = 0;
  EXPECT_THROW(run_selftimed_asm(inst, p), CheckError);
}

// ------------------------------------------ mm::Node quiescence contract

// K_{3,3} on left {0, 1, 2} and right {3, 4, 5}, a pendant left node 6 on
// node 5, and an isolated node 7 (quiescent from its reset on).
const Graph& contract_graph() {
  static const Graph g(8, {{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5},
                           {2, 3}, {2, 4}, {2, 5}, {5, 6}});
  return g;
}

bool contract_left(NodeId v) { return v <= 2 || v == 6; }

constexpr mm::Backend kAllBackends[] = {
    mm::Backend::kPointerGreedy, mm::Backend::kIsraeliItai,
    mm::Backend::kRandomPriority, mm::Backend::kColorClass};

// Every message type a maximal-matching node reads.
constexpr MsgType kMmTypes[] = {
    MsgType::kMmPick,    MsgType::kMmKeep,      MsgType::kMmChoose,
    MsgType::kMmMatched, MsgType::kMmPropose,   MsgType::kMmAcceptP,
    MsgType::kMmPriority, MsgType::kPort,       MsgType::kParent,
    MsgType::kColor};

using Nodes = mm::NodePool;

Nodes make_contract_nodes(mm::Backend backend) {
  const Graph& g = contract_graph();
  Nodes nodes;
  nodes.prepare(backend, /*seed=*/11, g.node_count(), g.max_degree(),
                g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    nodes[v].reset(v, contract_left(v), g.neighbors(v));
  }
  return nodes;
}

// Steps every node every round for `iterations` protocol iterations, as
// the self-timed run does, and checks each call on a node that was
// quiescent before it: no send, same partner, still quiescent. Returns the
// transmission trace.
std::vector<TraceEvent> step_all(Nodes& nodes, int iterations) {
  const Graph& g = contract_graph();
  Network net(g);
  net.enable_trace(1 << 14);
  const int rounds = iterations * nodes[0].rounds_per_iteration();
  for (int r = 0; r < rounds; ++r) {
    net.begin_round();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      mm::Node& node = nodes[v];
      const bool was_quiescent = node.quiescent();
      const NodeId partner = node.partner();
      const std::int64_t sent = net.stats().messages;
      node.on_round(net.inbox(v), net);
      if (!was_quiescent) continue;
      EXPECT_EQ(net.stats().messages, sent) << "node " << v << " round " << r;
      EXPECT_EQ(node.partner(), partner) << "node " << v << " round " << r;
      EXPECT_TRUE(node.quiescent()) << "node " << v << " round " << r;
    }
    net.end_round();
  }
  return net.trace();
}

// Steps each (quiescent) node alone for three iterations while every
// graph neighbour sends it a message each round, cycling through the MM
// message types: it must send nothing and keep its partner.
void probe_quiescent(Nodes& nodes) {
  const Graph& g = contract_graph();
  const int rounds = 3 * nodes[0].rounds_per_iteration();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    mm::Node& node = nodes[v];
    ASSERT_TRUE(node.quiescent()) << "node " << v;
    const NodeId partner = node.partner();
    Network probe(g);
    for (int r = 0; r < rounds; ++r) {
      probe.begin_round();
      const std::int64_t sent = probe.stats().messages;
      node.on_round(probe.inbox(v), probe);
      EXPECT_EQ(probe.stats().messages, sent) << "node " << v << " round " << r;
      EXPECT_EQ(node.partner(), partner) << "node " << v << " round " << r;
      std::size_t i = 0;
      for (const NodeId u : g.neighbors(v)) {
        const MsgType type =
            kMmTypes[(static_cast<std::size_t>(r) + i++) % std::size(kMmTypes)];
        probe.send(u, v, Message{type, (r + u) % 4, u});
      }
      probe.end_round();
    }
  }
}

// Generous for every backend on contract_graph: each one is quiescent
// everywhere well before this (checked below).
constexpr int kContractIterations = 40;

TEST(MmNodeContract, QuiescentNodesSendNothingAndKeepTheirPartner) {
  for (const mm::Backend backend : kAllBackends) {
    SCOPED_TRACE(mm::to_string(backend));
    Nodes nodes = make_contract_nodes(backend);
    EXPECT_TRUE(nodes[7].quiescent());  // isolated from its reset on
    step_all(nodes, kContractIterations);
    probe_quiescent(nodes);
    // The same after a reset onto no neighbours, the state every player
    // outside G0 would be in after Step 3's first round.
    for (NodeId v = 0; v < contract_graph().node_count(); ++v) {
      nodes[v].reset(v, contract_left(v), {});
    }
    probe_quiescent(nodes);
  }
}

TEST(MmNodeContract, QuiescentStepsDrawNoRandomness) {
  // Twin executions from the same seeds: in one, every node is stepped
  // while quiescent (after matching, and after a reset onto no
  // neighbours); the other is left alone. After both reset onto the
  // graph again, every pick, priority and send must agree.
  for (const mm::Backend backend :
       {mm::Backend::kIsraeliItai, mm::Backend::kRandomPriority}) {
    SCOPED_TRACE(mm::to_string(backend));
    Nodes stepped = make_contract_nodes(backend);
    Nodes untouched = make_contract_nodes(backend);
    EXPECT_EQ(step_all(stepped, kContractIterations),
              step_all(untouched, kContractIterations));
    probe_quiescent(stepped);
    for (Nodes* nodes : {&stepped, &untouched}) {
      for (NodeId v = 0; v < contract_graph().node_count(); ++v) {
        (*nodes)[v].reset(v, contract_left(v), {});
      }
    }
    probe_quiescent(stepped);
    for (Nodes* nodes : {&stepped, &untouched}) {
      for (NodeId v = 0; v < contract_graph().node_count(); ++v) {
        (*nodes)[v].reset(v, contract_left(v), contract_graph().neighbors(v));
      }
    }
    const std::vector<TraceEvent> again = step_all(stepped, 4);
    EXPECT_FALSE(again.empty());
    EXPECT_EQ(again, step_all(untouched, 4));
  }
}

}  // namespace
}  // namespace dasm::core
