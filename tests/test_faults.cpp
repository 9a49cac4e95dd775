// Fault-injection layer (DESIGN.md §8): deterministic loss / duplication /
// delay / crash-stop at the Network level, the ack+retransmit reliability
// sublayer on top, and the determinism-under-faults contract — the same
// seeded FaultPlan produces bit-identical results, NetStats, transmission
// traces, and exported obs traces run to run, for ASM, RandASM, and the
// standalone mm::Runner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "stable/blocking.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dasm {
namespace {

std::vector<std::vector<NodeId>> triangle() {
  return {{1, 2}, {0, 2}, {0, 1}};
}

// Star: leaves 1..4 around center 0.
std::vector<std::vector<NodeId>> star5() {
  return {{1, 2, 3, 4}, {0}, {0}, {0}, {0}};
}

std::int64_t conservation_gap(const Network& net) {
  const NetStats& s = net.stats();
  return s.messages + s.duplicated + s.retransmitted -
         (s.delivered + s.dropped + s.filtered + net.pending_wire_copies());
}

// The nontrivial plan the determinism suites run under: loss, duplication,
// and bounded reorder all active at once.
FaultPlan lossy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.15;
  plan.duplicate = 0.10;
  plan.delay = 0.20;
  plan.max_delay = 3;
  return plan;
}

TEST(FaultPlanTest, ActiveAndValidate) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.drop = 0.1;
  EXPECT_TRUE(plan.active());
  plan.validate();
  plan.drop = 1.5;
  EXPECT_THROW(plan.validate(), CheckError);
  plan.drop = 0.0;
  plan.delay = 0.5;  // delay probability without a max_delay bound
  EXPECT_TRUE(plan.max_delay == 0);
  EXPECT_THROW(plan.validate(), CheckError);
}

TEST(FaultPlanTest, CounterPrngIsPureAndSaltSeparated) {
  const std::uint64_t a = fault_mix(1, 2, 3, 4);
  EXPECT_EQ(a, fault_mix(1, 2, 3, 4));  // pure function of its inputs
  EXPECT_NE(a, fault_mix(2, 2, 3, 4));
  EXPECT_NE(a, fault_mix(1, 3, 3, 4));
  EXPECT_NE(a, fault_mix(1, 2, 4, 4));
  EXPECT_NE(a, fault_mix(1, 2, 3, 5));
  EXPECT_NE(fault_mix(1 ^ kFaultDropSalt, 2, 3, 4),
            fault_mix(1 ^ kFaultDelaySalt, 2, 3, 4));
  EXPECT_EQ(probability_threshold(0.0), 0u);
  EXPECT_EQ(probability_threshold(1.0), ~std::uint64_t{0});
  EXPECT_NEAR(static_cast<double>(probability_threshold(0.5)) / 0x1p64, 0.5,
              1e-9);
}

TEST(FaultNetworkTest, DropAllRoundReadsSilentAndCountsDropped) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 1.0;
  net.set_fault_plan(plan);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(1, 2, Message{MsgType::kPropose});
  net.end_round();
  // A round whose every message was dropped must read as silent, with the
  // losses in `dropped` and never in delivered totals.
  EXPECT_TRUE(net.last_round_was_silent());
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_TRUE(net.inbox(2).empty());
  EXPECT_EQ(net.stats().messages, 2);
  EXPECT_EQ(net.stats().dropped, 2);
  EXPECT_EQ(net.stats().delivered, 0);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(FaultNetworkTest, FaultFreePlanDeliversSendOrderAndConserves) {
  // Fault mode engaged (nonzero plan) but with probabilities that never
  // fire on these draws is still exact accounting; use an edge override
  // of 0 to force the fault path with no losses.
  Network net(star5());
  FaultPlan plan;
  plan.seed = 3;
  plan.edge_drops.push_back(EdgeDrop{1, 0, 0.0});
  net.set_fault_plan(plan);
  for (int round = 0; round < 3; ++round) {
    net.begin_round();
    for (NodeId leaf = 1; leaf <= 4; ++leaf) {
      net.send(leaf, 0, Message{MsgType::kPropose, leaf});
    }
    net.end_round();
    ASSERT_EQ(net.inbox(0).size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {  // send-call order preserved
      EXPECT_EQ(net.inbox(0)[i].from, static_cast<NodeId>(i + 1));
    }
  }
  EXPECT_EQ(net.stats().messages, 12);
  EXPECT_EQ(net.stats().delivered, 12);
  EXPECT_EQ(net.stats().dropped, 0);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(FaultNetworkTest, PerEdgeDropOverridesGlobalProbability) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 11;
  plan.drop = 0.0;
  plan.edge_drops.push_back(EdgeDrop{0, 1, 1.0});  // this link always loses
  net.set_fault_plan(plan);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(0, 2, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());
  ASSERT_EQ(net.inbox(2).size(), 1u);
  EXPECT_EQ(net.stats().dropped, 1);
  EXPECT_EQ(net.stats().delivered, 1);
}

TEST(FaultNetworkTest, DuplicationDeliversExtraCopyLater) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate = 1.0;
  net.set_fault_plan(plan);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose, 42});
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);  // original arrives in its round
  net.begin_round();
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);  // duplicate arrives one round later
  EXPECT_EQ(net.inbox(1)[0].msg.a, 42);
  EXPECT_EQ(net.stats().messages, 1);
  EXPECT_EQ(net.stats().duplicated, 1);
  EXPECT_EQ(net.stats().delivered, 2);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(FaultNetworkTest, DelayReordersAcrossRoundsDeterministically) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 17;
  plan.delay = 1.0;
  plan.max_delay = 2;
  net.set_fault_plan(plan);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose, 1});
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());  // every copy is delayed 1..2 rounds
  EXPECT_TRUE(net.last_round_was_silent());
  EXPECT_EQ(net.pending_wire_copies(), 1);
  std::vector<std::size_t> arrivals;
  for (int round = 0; round < 2; ++round) {
    net.begin_round();
    net.end_round();
    arrivals.push_back(net.inbox(1).size());
  }
  EXPECT_EQ(arrivals[0] + arrivals[1], 1u);  // arrives exactly once
  EXPECT_EQ(net.pending_wire_copies(), 0);
  EXPECT_EQ(net.stats().delivered, 1);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(FaultNetworkTest, CrashStopKillsSendsAndReceives) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 23;
  plan.crashes.push_back(CrashEvent{1, 2});  // node 2 dies at wire round 1
  net.set_fault_plan(plan);
  net.begin_round();  // wire round 0: node 2 still alive
  net.send(2, 0, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  net.begin_round();  // wire round 1: crashed
  net.send(2, 0, Message{MsgType::kPropose});
  net.send(0, 2, Message{MsgType::kPropose});
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_TRUE(net.inbox(0).empty());
  EXPECT_TRUE(net.inbox(2).empty());
  EXPECT_EQ(net.inbox(1).size(), 1u);  // live pair unaffected
  EXPECT_EQ(net.stats().dropped, 2);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(FaultNetworkTest, ConservationLawUnderMixedFaults) {
  Network net(star5());
  net.set_fault_plan(lossy_plan(99));
  Xoshiro256 rng = derive_stream(99, 0xFA);
  for (int round = 0; round < 200; ++round) {
    net.begin_round();
    for (NodeId leaf = 1; leaf <= 4; ++leaf) {
      if (rng.bernoulli(0.7)) {
        net.send(leaf, 0, Message{MsgType::kPropose, leaf});
        if (rng.bernoulli(0.5)) {
          net.send(0, leaf, Message{MsgType::kAccept});
        }
      }
    }
    net.end_round();
    EXPECT_EQ(conservation_gap(net), 0) << "round " << round;
  }
  // Drain the delay ring: in-flight copies resolve to delivered/dropped.
  for (int round = 0; round < 4; ++round) {
    net.begin_round();
    net.end_round();
  }
  EXPECT_EQ(net.pending_wire_copies(), 0);
  EXPECT_EQ(conservation_gap(net), 0);
  EXPECT_GT(net.stats().dropped, 0);
  EXPECT_GT(net.stats().duplicated, 0);
  EXPECT_GT(net.stats().delivered, 0);
}

TEST(FaultNetworkTest, SameSeedSamePlanIsByteIdentical) {
  auto run = [](std::uint64_t plan_seed) {
    Network net(star5());
    net.set_fault_plan(lossy_plan(plan_seed));
    net.enable_trace(1 << 12);
    std::vector<std::vector<Envelope>> inboxes;
    for (int round = 0; round < 50; ++round) {
      net.begin_round();
      for (NodeId leaf = 1; leaf <= 4; ++leaf) {
        net.send(leaf, 0, Message{MsgType::kPropose, leaf, round % 7});
        net.send(0, leaf, Message{MsgType::kMmPick, round});
      }
      net.end_round();
      for (NodeId v = 0; v < 5; ++v) {
        inboxes.emplace_back(net.inbox(v).begin(), net.inbox(v).end());
      }
    }
    return std::tuple(net.stats(), net.trace(), inboxes);
  };
  EXPECT_EQ(run(1), run(1));  // same plan seed: identical everything
  EXPECT_NE(std::get<0>(run(1)), std::get<0>(run(2)));  // seed matters
}

TEST(FaultNetworkTest, TraceDropCounterIsRingEvictionOnlyNotFaultDrops) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 1;
  plan.drop = 1.0;
  net.set_fault_plan(plan);
  net.enable_trace(100);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(0, 2, Message{MsgType::kPropose});
  net.end_round();
  // Both transmissions were traced (the ring saw them) even though the
  // fault layer then dropped both; dropped_trace_events() stays about
  // ring evictions, NetStats::dropped about wire losses.
  EXPECT_EQ(net.trace().size(), 2u);
  EXPECT_EQ(net.dropped_trace_events(), 0);
  EXPECT_EQ(net.stats().dropped, 2);
}

// ---------------------------------------------------------------------------
// Reliability sublayer.

TEST(ReliableTransportTest, DeliversDespiteHeavyLossInSendOrder) {
  Network net(star5());
  FaultPlan plan;
  plan.seed = 31;
  plan.drop = 0.5;
  net.set_fault_plan(plan);
  net.set_reliable_transport(/*retransmit_after=*/2);
  for (int round = 0; round < 20; ++round) {
    net.begin_round();
    for (NodeId leaf = 1; leaf <= 4; ++leaf) {
      net.send(leaf, 0, Message{MsgType::kPropose, leaf});
    }
    net.end_round();
    // Every payload of the round arrives within the round (end_round
    // loops wire rounds), in the fault-free send order.
    ASSERT_EQ(net.inbox(0).size(), 4u) << "round " << round;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(net.inbox(0)[i].from, static_cast<NodeId>(i + 1));
    }
    EXPECT_EQ(conservation_gap(net), 0);
  }
  EXPECT_EQ(net.stats().messages, 80);
  EXPECT_EQ(net.stats().delivered, 80);
  EXPECT_GT(net.stats().retransmitted, 0);
  EXPECT_GT(net.stats().dropped, 0);
  // Wire rounds exceed the 20 protocol rounds: the cost of loss.
  EXPECT_GT(net.stats().executed_rounds, 20);
}

TEST(ReliableTransportTest, IdempotentFilterSuppressesDuplicates) {
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 41;
  plan.duplicate = 1.0;  // every copy duplicated, nothing lost
  net.set_fault_plan(plan);
  net.set_reliable_transport(/*retransmit_after=*/2);
  for (int round = 0; round < 10; ++round) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, round});
    net.end_round();
    ASSERT_EQ(net.inbox(1).size(), 1u);  // exactly-once delivery
    EXPECT_EQ(net.inbox(1)[0].msg.a, round);
  }
  // Drain stray delayed duplicates.
  for (int round = 0; round < 4; ++round) {
    net.begin_round();
    net.end_round();
    EXPECT_TRUE(net.inbox(1).empty());
  }
  EXPECT_EQ(net.stats().delivered, 10);
  EXPECT_EQ(net.stats().duplicated, 10);
  EXPECT_EQ(net.stats().filtered, 10);
  EXPECT_EQ(conservation_gap(net), 0);
}

TEST(ReliableTransportTest, ReliableRunMatchesFaultFreeInboxes) {
  // The canonical-order contract: a reliable execution over a lossy
  // network reads exactly the inboxes of the fault-free execution, so
  // protocols behave identically and only the round/traffic cost differs.
  Network reliable(star5());
  FaultPlan plan;
  plan.seed = 53;
  plan.drop = 0.3;
  plan.duplicate = 0.2;
  plan.delay = 0.2;
  plan.max_delay = 2;
  reliable.set_fault_plan(plan);
  reliable.set_reliable_transport(/*retransmit_after=*/2);
  Network clean(star5());
  for (int round = 0; round < 30; ++round) {
    for (Network* net : {&reliable, &clean}) {
      net->begin_round();
      for (NodeId leaf = 1; leaf <= 4; ++leaf) {
        if ((round + leaf) % 3 != 0) {
          net->send(leaf, 0, Message{MsgType::kPropose, leaf, round});
        }
      }
      if (round % 2 == 0) {
        net->send(0, 1, Message{MsgType::kAccept, round});
      }
      net->end_round();
    }
    for (NodeId v = 0; v < 5; ++v) {
      const InboxView got = reliable.inbox(v);
      const InboxView want = clean.inbox(v);
      ASSERT_EQ(got.size(), want.size()) << "round " << round << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "round " << round << " node " << v;
      }
    }
    EXPECT_EQ(reliable.last_round_was_silent(), clean.last_round_was_silent());
  }
  EXPECT_EQ(reliable.stats().messages, clean.stats().messages);
  EXPECT_EQ(reliable.stats().delivered, clean.stats().delivered);
}

// ---------------------------------------------------------------------------
// Determinism under faults: ASM / RandASM / mm::Runner, 3 seeds, a
// nontrivial FaultPlan — a second run repeats the first bit for bit
// (results, NetStats, transmission traces, exported obs traces).

const std::vector<std::uint64_t> kFaultSeeds{2, 9, 27};

TEST(FaultDeterminismTest, AsmRepeatsBitForBit) {
  const Instance inst = gen::complete_uniform(16, 21);
  for (const std::uint64_t seed : kFaultSeeds) {
    core::AsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.net_trace_events = 1 << 14;
    params.fault_plan = lossy_plan(seed * 13 + 1);
    params.retransmit_after = 2;
    obs::MemorySink ref_sink;
    params.obs_sink = &ref_sink;
    const auto ref = core::run_asm(inst, params);
    EXPECT_GT(ref.net.retransmitted, 0) << "plan not nontrivial?";
    obs::MemorySink sink;
    params.obs_sink = &sink;
    const auto got = core::run_asm(inst, params);
    EXPECT_EQ(got.matching, ref.matching) << "seed " << seed;
    EXPECT_EQ(got.net, ref.net) << "seed " << seed;
    EXPECT_EQ(got.net_trace, ref.net_trace) << "seed " << seed;
    EXPECT_EQ(obs::to_jsonl(sink), obs::to_jsonl(ref_sink)) << "seed " << seed;
  }
}

TEST(FaultDeterminismTest, RandAsmRepeatsBitForBit) {
  const Instance inst = gen::complete_uniform(16, 8);
  for (const std::uint64_t seed : kFaultSeeds) {
    core::RandAsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.net_trace_events = 1 << 14;
    params.fault_plan = lossy_plan(seed * 17 + 3);
    params.retransmit_after = 2;
    const auto ref = core::run_rand_asm(inst, params);
    const auto got = core::run_rand_asm(inst, params);
    EXPECT_EQ(got.matching, ref.matching) << "seed " << seed;
    EXPECT_EQ(got.net, ref.net) << "seed " << seed;
    EXPECT_EQ(got.net_trace, ref.net_trace) << "seed " << seed;
  }
}

TEST(FaultDeterminismTest, MmRunnerRepeatsBitForBit) {
  const auto [g, is_left] = testing::random_bipartite(14, 14, 0.35, 6);
  for (const std::uint64_t seed : kFaultSeeds) {
    mm::RunConfig config;
    config.backend = mm::Backend::kIsraeliItai;
    config.seed = seed;
    config.trace_events = 1 << 14;
    config.fault_plan = lossy_plan(seed * 7 + 5);
    config.retransmit_after = 2;
    const auto ref = run_maximal_matching(g, is_left, config);
    EXPECT_TRUE(ref.maximal) << "reliable transport must preserve maximality";
    const auto got = run_maximal_matching(g, is_left, config);
    EXPECT_EQ(got.matching, ref.matching) << "seed " << seed;
    EXPECT_EQ(got.net, ref.net) << "seed " << seed;
    EXPECT_EQ(got.trace, ref.trace) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Convergence: ASM with retransmission at 10% uniform loss still reaches a
// (1 - eps)-stable matching — and in fact the fault-free matching exactly.

TEST(FaultConvergenceTest, AsmReachesEpsStabilityAtTenPercentLoss) {
  const double eps = 0.25;
  for (const std::uint64_t seed : kFaultSeeds) {
    const Instance inst = gen::complete_uniform(24, seed);
    core::AsmParams params;
    params.epsilon = eps;
    params.seed = seed * 3 + 1;
    const auto clean = core::run_asm(inst, params);
    params.fault_plan.seed = seed * 19 + 7;
    params.fault_plan.drop = 0.10;
    params.retransmit_after = 2;
    const auto faulty = core::run_asm(inst, params);
    EXPECT_GT(validate_matching(inst, faulty.matching), 0);  // throws if invalid
    EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, faulty.matching)),
              eps * static_cast<double>(inst.edge_count()))
        << "seed " << seed;
    EXPECT_EQ(faulty.matching, clean.matching) << "seed " << seed;
    EXPECT_GT(faulty.net.dropped, 0) << "seed " << seed;
    EXPECT_GT(faulty.net.executed_rounds, clean.net.executed_rounds)
        << "loss must cost wire rounds";
  }
}

}  // namespace
}  // namespace dasm
