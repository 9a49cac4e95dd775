#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace dasm {
namespace {

// Networks borrow their Graph, so the shared topologies live as long as
// the test binary.
const Graph& triangle() {
  static const Graph g(3, {{0, 1}, {0, 2}, {1, 2}});
  return g;
}

// Nodes 0 and 1 joined, node 2 isolated.
const Graph& edge_and_isolated_node() {
  static const Graph g(3, {{0, 1}});
  return g;
}

TEST(MessageTest, EncodedBitsGrowWithPayload) {
  EXPECT_EQ((Message{MsgType::kPropose}).encoded_bits(), 8);
  EXPECT_GT((Message{MsgType::kPropose, 5}).encoded_bits(), 8);
  EXPECT_GT((Message{MsgType::kPropose, 1 << 20}).encoded_bits(),
            (Message{MsgType::kPropose, 5}).encoded_bits());
  // Negative payloads cost the same as their magnitude plus the sign bit.
  EXPECT_EQ((Message{MsgType::kPropose, -5}).encoded_bits(),
            (Message{MsgType::kPropose, 5}).encoded_bits());
}

TEST(MessageTest, DebugStrings) {
  EXPECT_STREQ(to_string(MsgType::kAccept), "ACCEPT");
  EXPECT_STREQ(to_string(MsgType::kMmPick), "MM_PICK");
  EXPECT_EQ(to_debug_string(Message{MsgType::kReject, 3, 4}), "REJECT(3,4)");
}

TEST(NetworkTest, DeliversAfterEndRound) {
  Network net(triangle());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_TRUE(net.inbox(1).empty());  // not yet delivered
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].msg.type, MsgType::kPropose);
  EXPECT_TRUE(net.inbox(0).empty());
  EXPECT_TRUE(net.inbox(2).empty());
}

TEST(NetworkTest, InboxReplacedEachRound) {
  Network net(triangle());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(NetworkTest, RejectsNonEdgeSend) {
  Network net(edge_and_isolated_node());
  net.begin_round();
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose}), CheckError);
}

TEST(NetworkTest, RejectsDoubleSendOnDirectedEdge) {
  Network net(triangle());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kAccept}), CheckError);
  // The reverse direction and the next round are both fine.
  net.send(1, 0, Message{MsgType::kAccept});
  net.end_round();
  net.begin_round();
  EXPECT_NO_THROW(net.send(0, 1, Message{MsgType::kPropose}));
  net.end_round();
}

TEST(NetworkTest, RejectsSendOutsideRound) {
  Network net(triangle());
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kPropose}), CheckError);
}

TEST(NetworkTest, RejectsUnbalancedRoundCalls) {
  Network net(triangle());
  net.begin_round();
  EXPECT_THROW(net.begin_round(), CheckError);
  net.end_round();
  EXPECT_THROW(net.end_round(), CheckError);
}

TEST(NetworkTest, EnforcesBitBudget) {
  Network net(triangle(), /*message_bit_budget=*/16);
  net.begin_round();
  EXPECT_NO_THROW(net.send(0, 1, Message{MsgType::kPropose, 3}));
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose, 1LL << 40}),
               CheckError);
}

TEST(NetworkTest, DefaultBudgetScalesLogarithmically) {
  Network small(triangle());
  std::vector<Edge> pairs;
  for (NodeId v = 0; v + 1 < (1 << 16); v += 2) pairs.push_back({v, v + 1});
  const Graph big(1 << 16, pairs);
  Network large(big);
  EXPECT_GT(large.message_bit_budget(), small.message_bit_budget());
  EXPECT_LE(large.message_bit_budget(), 8 * 17);
}

TEST(NetworkTest, StatsAccumulate) {
  Network net(triangle());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(2, 1, Message{MsgType::kAccept, 9});
  net.end_round();
  const auto& s = net.stats();
  EXPECT_EQ(s.executed_rounds, 1);
  EXPECT_EQ(s.scheduled_rounds, 1);
  EXPECT_EQ(s.messages, 2);
  EXPECT_GT(s.bits, 16);
  EXPECT_GE(s.max_message_bits, 8);
}

TEST(NetworkTest, PerTypeTrafficBreakdown) {
  Network net(triangle());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(0, 2, Message{MsgType::kPropose});
  net.send(1, 0, Message{MsgType::kReject});
  net.end_round();
  EXPECT_EQ(net.stats().count_of(MsgType::kPropose), 2);
  EXPECT_EQ(net.stats().count_of(MsgType::kReject), 1);
  EXPECT_EQ(net.stats().count_of(MsgType::kAccept), 0);
}

TEST(NetworkTest, InboxPreservesSendOrder) {
  // Protocol determinism relies on envelopes arriving in the order the
  // senders were stepped within the round.
  Network net(triangle());
  net.begin_round();
  net.send(0, 2, Message{MsgType::kPropose, 1});
  net.send(1, 2, Message{MsgType::kPropose, 2});
  net.end_round();
  ASSERT_EQ(net.inbox(2).size(), 2u);
  EXPECT_EQ(net.inbox(2)[0].from, 0);
  EXPECT_EQ(net.inbox(2)[1].from, 1);
}

TEST(NetworkTest, HighVolumeStress) {
  // A complete bipartite 40+40 network for 50 all-pairs rounds: 160k
  // messages with the per-edge discipline enforced throughout.
  const NodeId half = 40;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < half; ++u) {
    for (NodeId v = 0; v < half; ++v) edges.push_back({u, half + v});
  }
  const Graph g(2 * half, edges);
  Network net(g);
  for (int r = 0; r < 50; ++r) {
    net.begin_round();
    for (NodeId u = 0; u < half; ++u) {
      for (NodeId v = 0; v < half; ++v) {
        net.send(u, half + v, Message{MsgType::kPropose, r});
      }
    }
    net.end_round();
    for (NodeId v = 0; v < half; ++v) {
      ASSERT_EQ(net.inbox(half + v).size(), static_cast<std::size_t>(half));
    }
  }
  EXPECT_EQ(net.stats().messages, 50LL * half * half);
  EXPECT_EQ(net.stats().executed_rounds, 50);
}

TEST(NetworkTest, TraceRecordsTransmissions) {
  Network net(triangle());
  net.enable_trace(8);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.send(1, 0, Message{MsgType::kAccept});
  net.end_round();
  ASSERT_EQ(net.trace().size(), 2u);
  EXPECT_EQ(net.trace()[0], (TraceEvent{0, 0, 1, Message{MsgType::kPropose}}));
  EXPECT_EQ(net.trace()[1], (TraceEvent{1, 1, 0, Message{MsgType::kAccept}}));
  EXPECT_EQ(net.dropped_trace_events(), 0);
}

TEST(NetworkTest, TraceCapDropsOldest) {
  Network net(triangle());
  net.enable_trace(2);
  for (int i = 0; i < 3; ++i) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, i});
    net.end_round();
  }
  ASSERT_EQ(net.trace().size(), 2u);
  EXPECT_EQ(net.dropped_trace_events(), 1);
  EXPECT_EQ(net.trace()[0].msg.a, 1);  // event 0 was dropped
  net.enable_trace(0);
  EXPECT_TRUE(net.trace().empty());
}

TEST(NetworkTest, TraceFiveTimesOverCapKeepsNewest) {
  // Regression for the O(cap) erase-from-front eviction: a 5x over-cap
  // trace must retain exactly the newest `cap` events (ring-buffer
  // semantics) and account for every dropped one.
  const std::size_t cap = 4;
  const int total = static_cast<int>(cap) * 5;
  Network net(triangle());
  net.enable_trace(cap);
  for (int i = 0; i < total; ++i) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, i});
    net.end_round();
  }
  const auto events = net.trace();
  ASSERT_EQ(events.size(), cap);
  EXPECT_EQ(net.dropped_trace_events(),
            static_cast<std::int64_t>(total - static_cast<int>(cap)));
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(events[i].msg.a,
              static_cast<std::int64_t>(total - static_cast<int>(cap) + i));
    EXPECT_EQ(events[i].round,
              static_cast<Round>(total - static_cast<int>(cap) + i));
  }
}

TEST(NetworkTest, StatsAndInboxesMatchReferenceModelOnRandomSchedule) {
  // Drives the arena engine with a randomized message schedule and checks
  // it against a straightforward vector-of-vectors reference model:
  // inbox contents (values and order), last_round_was_silent(), and every
  // NetStats field must agree at each round.
  Xoshiro256 rng(20260806);
  const std::size_t n = 24;
  std::vector<Edge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (!rng.bernoulli(0.35)) continue;
      edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
    }
  }
  const Graph g(static_cast<NodeId>(n), edges);
  Network net(g);

  NetStats expected;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::vector<Envelope>> ref_inbox(n);
    bool any = false;
    net.begin_round();
    for (std::size_t u = 0; u < n; ++u) {
      for (NodeId v : net.neighbors(static_cast<NodeId>(u))) {
        if (!rng.bernoulli(0.4)) continue;
        const auto type = static_cast<MsgType>(rng.below(4));
        const Message msg{type, rng.range(-64, 1 << 16),
                          rng.range(0, 1 << 10)};
        net.send(static_cast<NodeId>(u), v, msg);
        ref_inbox[static_cast<std::size_t>(v)].push_back(
            Envelope{static_cast<NodeId>(u), msg});
        any = true;
        ++expected.messages;
        ++expected.messages_by_type[static_cast<std::size_t>(type)];
        expected.bits += msg.encoded_bits();
        expected.max_message_bits =
            std::max(expected.max_message_bits, msg.encoded_bits());
      }
    }
    net.end_round();
    ++expected.executed_rounds;
    ++expected.scheduled_rounds;

    EXPECT_EQ(net.last_round_was_silent(), !any) << "round " << round;
    for (std::size_t v = 0; v < n; ++v) {
      const InboxView got = net.inbox(static_cast<NodeId>(v));
      ASSERT_EQ(got.size(), ref_inbox[v].size())
          << "round " << round << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], ref_inbox[v][i])
            << "round " << round << " node " << v << " slot " << i;
      }
    }
    const NetStats& s = net.stats();
    EXPECT_EQ(s.executed_rounds, expected.executed_rounds);
    EXPECT_EQ(s.scheduled_rounds, expected.scheduled_rounds);
    EXPECT_EQ(s.messages, expected.messages);
    EXPECT_EQ(s.bits, expected.bits);
    EXPECT_EQ(s.max_message_bits, expected.max_message_bits);
    EXPECT_EQ(s.messages_by_type, expected.messages_by_type);
  }
  EXPECT_GT(net.stats().messages, 0);
}

// Drives `net` through `rounds` rounds of random traffic (each directed
// edge carries a message with probability `p_send`, and every seventh
// round sends nothing) and checks after every end_round() that
// receivers() lists each node with a non-empty inbox exactly once, and no
// other node.
void expect_receivers_are_nonempty_inboxes(Network& net, std::uint64_t seed,
                                           int rounds, double p_send) {
  Xoshiro256 rng(seed);
  const auto n = static_cast<std::size_t>(net.node_count());
  for (int round = 0; round < rounds; ++round) {
    net.begin_round();
    for (NodeId u = 0; u < net.node_count(); ++u) {
      for (const NodeId v : net.neighbors(u)) {
        if (round % 7 != 3 && rng.bernoulli(p_send)) {
          net.send(u, v, Message{MsgType::kPropose});
        }
      }
    }
    net.end_round();
    std::vector<int> listed(n, 0);
    for (const NodeId v : net.receivers()) {
      ASSERT_TRUE(v >= 0 && static_cast<std::size_t>(v) < n);
      ++listed[static_cast<std::size_t>(v)];
    }
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(listed[v], net.inbox(static_cast<NodeId>(v)).empty() ? 0 : 1)
          << "round " << round << " node " << v;
    }
    EXPECT_EQ(net.last_round_was_silent(), net.receivers().empty());
  }
}

const Graph& random_graph_24() {
  static const Graph g = [] {
    Xoshiro256 rng(7);
    std::vector<Edge> edges;
    for (NodeId u = 0; u < 24; ++u) {
      for (NodeId v = u + 1; v < 24; ++v) {
        if (rng.bernoulli(0.3)) edges.push_back({u, v});
      }
    }
    return Graph(24, edges);
  }();
  return g;
}

TEST(NetworkTest, ReceiversAreTheNonEmptyInboxes) {
  Network net(random_graph_24());
  EXPECT_TRUE(net.receivers().empty());  // nothing delivered yet
  expect_receivers_are_nonempty_inboxes(net, 31, 60, 0.05);
}

TEST(NetworkTest, ReceiversAreTheNonEmptyInboxesUnderDropAndDelay) {
  Network net(random_graph_24());
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  plan.delay = 0.3;
  plan.max_delay = 2;
  net.set_fault_plan(plan);
  expect_receivers_are_nonempty_inboxes(net, 32, 60, 0.05);
  EXPECT_GT(net.stats().dropped, 0);
}

TEST(NetworkTest, ChargeScheduledRounds) {
  Network net(triangle());
  net.begin_round();
  net.end_round();
  net.charge_scheduled_rounds(10);
  EXPECT_EQ(net.stats().executed_rounds, 1);
  EXPECT_EQ(net.stats().scheduled_rounds, 11);
  EXPECT_THROW(net.charge_scheduled_rounds(-1), CheckError);
}

TEST(NetworkTest, SilentRoundFlag) {
  Network net(triangle());
  net.begin_round();
  net.end_round();
  EXPECT_TRUE(net.last_round_was_silent());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_FALSE(net.last_round_was_silent());
}

TEST(NetworkTest, FaultFreeAccountingDeliveredEqualsSent) {
  // On the reliable arena path every committed send is delivered the same
  // round; the fault-layer counters must reflect that exactly.
  Network net(triangle());
  for (int round = 0; round < 3; ++round) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose});
    net.send(1, 2, Message{MsgType::kAccept});
    net.end_round();
  }
  EXPECT_EQ(net.stats().messages, 6);
  EXPECT_EQ(net.stats().delivered, 6);
  EXPECT_EQ(net.stats().dropped, 0);
  EXPECT_EQ(net.stats().duplicated, 0);
  EXPECT_EQ(net.stats().retransmitted, 0);
  EXPECT_EQ(net.stats().filtered, 0);
  EXPECT_EQ(net.pending_wire_copies(), 0);
}

TEST(NetworkTest, LossOnlyFaultsConserveSentEqualsDeliveredPlusDropped) {
  // With loss as the only fault (no duplication, no delay, no
  // retransmission) and no copies in flight, the conservation law
  // collapses to: sent == delivered + dropped.
  Network net(triangle());
  FaultPlan plan;
  plan.seed = 12;
  plan.drop = 0.4;
  net.set_fault_plan(plan);
  net.enable_trace(1 << 10);
  for (int round = 0; round < 100; ++round) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, round});
    net.send(1, 0, Message{MsgType::kAccept});
    net.send(2, 0, Message{MsgType::kReject});
    net.end_round();
    // Drops must surface as silence, never as stale inbox contents: an
    // all-dropped round reads exactly like a round with no traffic.
    const bool any_delivered =
        !net.inbox(0).empty() || !net.inbox(1).empty() || !net.inbox(2).empty();
    EXPECT_EQ(net.last_round_was_silent(), !any_delivered);
    EXPECT_EQ(net.pending_wire_copies(), 0);  // loss-only: nothing in flight
    EXPECT_EQ(net.stats().messages, net.stats().delivered + net.stats().dropped)
        << "round " << round;
  }
  EXPECT_EQ(net.stats().messages, 300);
  EXPECT_GT(net.stats().dropped, 0);
  EXPECT_GT(net.stats().delivered, 0);
  // The transmission trace saw every offered message; dropped_trace_events()
  // stays a ring-eviction counter and is untouched by wire losses.
  EXPECT_EQ(net.trace().size(), 300u);
  EXPECT_EQ(net.dropped_trace_events(), 0);
}

TEST(NetStatsTest, PlusEqualsMergesCounters) {
  NetStats a;
  a.executed_rounds = 3;
  a.scheduled_rounds = 5;
  a.messages = 10;
  a.bits = 200;
  a.max_message_bits = 16;
  a.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 7;
  a.messages_by_type[static_cast<std::size_t>(MsgType::kReject)] = 3;
  a.delivered = 8;
  a.dropped = 2;
  a.duplicated = 1;

  NetStats b;
  b.executed_rounds = 2;
  b.scheduled_rounds = 4;
  b.messages = 6;
  b.bits = 90;
  b.max_message_bits = 24;
  b.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 1;
  b.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] = 5;
  b.delivered = 5;
  b.dropped = 1;
  b.retransmitted = 4;
  b.filtered = 2;

  NetStats& ref = (a += b);
  EXPECT_EQ(&ref, &a);  // returns *this for chaining
  EXPECT_EQ(a.executed_rounds, 5);
  EXPECT_EQ(a.scheduled_rounds, 9);
  EXPECT_EQ(a.messages, 16);
  EXPECT_EQ(a.bits, 290);
  EXPECT_EQ(a.max_message_bits, 24);  // max, not sum
  EXPECT_EQ(a.count_of(MsgType::kPropose), 8);
  EXPECT_EQ(a.count_of(MsgType::kReject), 3);
  EXPECT_EQ(a.count_of(MsgType::kAccept), 5);
  EXPECT_EQ(a.delivered, 13);  // fault-layer counters merge additively too
  EXPECT_EQ(a.dropped, 3);
  EXPECT_EQ(a.duplicated, 1);
  EXPECT_EQ(a.retransmitted, 4);
  EXPECT_EQ(a.filtered, 2);
}

TEST(NetStatsTest, PlusEqualsIdentityAndEquality) {
  NetStats a;
  a.messages = 4;
  a.bits = 33;
  a.max_message_bits = 12;
  const NetStats before = a;
  a += NetStats{};  // default stats are the additive identity
  EXPECT_EQ(a, before);
  NetStats fresh;
  fresh += before;  // on either side: every field, the max included
  EXPECT_EQ(fresh, before);
  NetStats c = before;
  EXPECT_EQ(c, before);
  c.messages_by_type[2] += 1;  // per-type array participates in ==
  EXPECT_FALSE(c == before);
}

TEST(NetStatsTest, DeltaSinceSubtractsCounters) {
  NetStats base;
  base.executed_rounds = 4;
  base.scheduled_rounds = 6;
  base.messages = 30;
  base.bits = 500;
  base.max_message_bits = 16;
  base.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 30;

  NetStats later = base;
  later.executed_rounds += 3;
  later.scheduled_rounds += 3;
  later.messages += 12;
  later.bits += 200;
  later.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] += 5;
  later.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] += 7;

  later.delivered += 9;
  later.dropped += 3;

  const NetStats d = later.delta_since(base);
  EXPECT_EQ(d.executed_rounds, 3);
  EXPECT_EQ(d.scheduled_rounds, 3);
  EXPECT_EQ(d.messages, 12);
  EXPECT_EQ(d.delivered, 9);
  EXPECT_EQ(d.dropped, 3);
  EXPECT_EQ(d.bits, 200);
  EXPECT_EQ(d.max_message_bits, 16);  // carries, no windowed inverse
  EXPECT_EQ(d.count_of(MsgType::kPropose), 5);
  EXPECT_EQ(d.count_of(MsgType::kAccept), 7);

  // A zero-width window has empty counters; only max_message_bits remains.
  NetStats self = later.delta_since(later);
  EXPECT_EQ(self.max_message_bits, 16);
  self.max_message_bits = 0;
  EXPECT_EQ(self, NetStats{});
}

TEST(NetworkTest, RoundHookFiresAfterEachEndRound) {
  Network net(triangle());
  std::vector<std::int64_t> rounds_seen;
  std::vector<std::int64_t> messages_seen;
  net.set_round_hook([&](const NetStats& s) {
    rounds_seen.push_back(s.executed_rounds);
    messages_seen.push_back(s.messages);
  });
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.end_round();
  EXPECT_EQ(rounds_seen, (std::vector<std::int64_t>{1, 2}));
  // The hook sees the round's final stats.
  EXPECT_EQ(messages_seen, (std::vector<std::int64_t>{1, 1}));
  net.set_round_hook({});
  net.begin_round();
  net.end_round();
  EXPECT_EQ(rounds_seen.size(), 2u);  // cleared hooks no longer fire
}

#ifndef NDEBUG
TEST(NetStatsTest, CountOfOutOfRangeTypeFailsLoudlyInDebug) {
  // DASM_DCHECK compiles out under NDEBUG, so the bounds assertion is only
  // observable in debug builds.
  const NetStats s;
  EXPECT_THROW((void)s.count_of(static_cast<MsgType>(99)), CheckError);
}
#endif

TEST(NetworkTest, RejectedSendsLeaveNoTrace) {
  // A send that fails a model check (non-edge, second message on a
  // directed edge) throws before it touches an inbox or the stats.
  Network net(edge_and_isolated_node());
  net.begin_round();
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose}), CheckError);
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kAccept}), CheckError);
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].msg.type, MsgType::kPropose);
  EXPECT_EQ(net.stats().messages, 1);
}

TEST(NetworkTest, HasEdgeQueries) {
  Network net(triangle());
  EXPECT_TRUE(net.has_edge(0, 1));
  EXPECT_TRUE(net.has_edge(1, 0));
  EXPECT_FALSE(net.has_edge(0, 0));
  EXPECT_FALSE(net.has_edge(0, 99));
  EXPECT_EQ(net.node_count(), 3);
  EXPECT_EQ(net.neighbors(0).size(), 2u);
}

}  // namespace
}  // namespace dasm
