// Unit tests for the ASM player state machines, driven through a small
// hand-built network.
#include "core/player.hpp"

#include <gtest/gtest.h>

#include "mm/runner.hpp"
#include "stable/instance.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

// Pointer-greedy ignores make_node's degree and id bounds.
std::unique_ptr<mm::Node> greedy_node(NodeId id) {
  return mm::make_node(mm::Backend::kPointerGreedy, 1, id, 2, 3);
}

// One man (node 0) who ranks two women (nodes 1, 2); both rank him back.
// The instance owns every list (players only keep views) and is declared
// first so the views handed to the player constructors are valid.
struct Harness {
  Harness()
      : inst({{0, 1}}, {{0}, {0}}),
        net(inst.graph().graph()),
        man(0, inst.man_pref(0), /*k=*/2, /*woman_id_offset=*/1,
            greedy_node(0)),
        w0(1, inst.woman_pref(0), 2, greedy_node(1)),
        w1(2, inst.woman_pref(1), 2, greedy_node(2)) {}

  Instance inst;  // declared before net, which borrows its graph
  Network net;
  ManPlayer man;
  WomanPlayer w0;
  WomanPlayer w1;
};

TEST(ManPlayerTest, InitialState) {
  Harness h;
  EXPECT_EQ(h.man.partner(), kNoNode);
  EXPECT_EQ(h.man.q_size(), 2);
  EXPECT_FALSE(h.man.good());
  EXPECT_FALSE(h.man.dropped());
  EXPECT_FALSE(h.man.would_propose());  // A not yet filled
}

TEST(ManPlayerTest, QuantileRefillTakesBestNonempty) {
  Harness h;
  h.man.begin_quantile_match();
  EXPECT_TRUE(h.man.would_propose());
  h.net.begin_round();
  h.man.propose_round(h.net);
  h.net.end_round();
  // k = 2 over degree 2: the best quantile is the single woman 0 (node 1).
  ASSERT_EQ(h.net.inbox(1).size(), 1u);
  EXPECT_EQ(h.net.inbox(1)[0].msg.type, MsgType::kPropose);
  EXPECT_TRUE(h.net.inbox(2).empty());
}

TEST(ManPlayerTest, OuterGateBlocksRefill) {
  Harness h;
  h.man.set_outer_gate(4);  // |Q| = 2 < 4
  EXPECT_FALSE(h.man.active());
  h.man.begin_quantile_match();
  EXPECT_FALSE(h.man.would_propose());
  h.man.set_outer_gate(2);
  EXPECT_TRUE(h.man.active());
  h.man.begin_quantile_match();
  EXPECT_TRUE(h.man.would_propose());
}

TEST(ManPlayerTest, RejectionPrunesQAndPartner) {
  Harness h;
  h.man.begin_quantile_match();
  // Woman 0 (node 1) rejects him.
  h.net.begin_round();
  h.net.send(1, 0, Message{MsgType::kReject});
  h.net.end_round();
  h.man.finalize(h.net.inbox(0));
  EXPECT_EQ(h.man.q_size(), 1);
  EXPECT_FALSE(h.man.would_propose());  // she was his only active target
  EXPECT_FALSE(h.man.good());           // unmatched, Q nonempty

  // A second rejection from the same woman is a protocol violation.
  h.net.begin_round();
  h.net.send(1, 0, Message{MsgType::kReject});
  h.net.end_round();
  EXPECT_THROW(h.man.finalize(h.net.inbox(0)), CheckError);
}

TEST(ManPlayerTest, ExhaustedManIsGood) {
  Harness h;
  for (NodeId w_node : {1, 2}) {
    h.net.begin_round();
    h.net.send(w_node, 0, Message{MsgType::kReject});
    h.net.end_round();
    h.man.finalize(h.net.inbox(0));
  }
  EXPECT_EQ(h.man.q_size(), 0);
  EXPECT_TRUE(h.man.good());
}

TEST(WomanPlayerTest, AcceptsBestProposingQuantile) {
  // Woman (node 2) ranks men 0 and 1; k = 2 so each is his own quantile.
  const Instance inst({{0}, {0}}, {{0, 1}});
  Network net(inst.graph().graph());
  WomanPlayer w(2, inst.woman_pref(0), 2, greedy_node(2));

  net.begin_round();
  net.send(0, 2, Message{MsgType::kPropose});
  net.send(1, 2, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  w.accept_round(net.inbox(2), net);
  net.end_round();
  // Only the quantile-1 man (man 0) is accepted.
  ASSERT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(0)[0].msg.type, MsgType::kAccept);
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(WomanPlayerTest, AcceptsWholeQuantileWhenCoarse) {
  // k = 1: both men share quantile 1, so both get accepted.
  const Instance inst({{0}, {0}}, {{0, 1}});
  Network net(inst.graph().graph());
  WomanPlayer w(2, inst.woman_pref(0), 1, greedy_node(2));
  net.begin_round();
  net.send(0, 2, Message{MsgType::kPropose});
  net.send(1, 2, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  w.accept_round(net.inbox(2), net);
  net.end_round();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(1).size(), 1u);
}

TEST(WomanPlayerTest, ProposalFromUnrankedManIsAViolation) {
  // She ranks only man 0; man 1 ranks nobody, but the network still
  // carries his proposal.
  const Instance inst({{0}, {}}, {{0}});
  const Graph g(3, {{0, 2}, {1, 2}});
  Network net(g);
  WomanPlayer w(2, inst.woman_pref(0), 1, greedy_node(2));
  net.begin_round();
  net.send(1, 2, Message{MsgType::kPropose});  // man 1 is not on her list
  net.end_round();
  net.begin_round();
  EXPECT_THROW(w.accept_round(net.inbox(2), net), CheckError);
  net.end_round();
}

TEST(QuantileOfRankTest, Properties) {
  // Exhaustive sweep: quantiles are 1-based, within [1, k], monotone in
  // rank, and balanced to within one element.
  for (NodeId d = 1; d <= 24; ++d) {
    for (NodeId k = 1; k <= 24; ++k) {
      NodeId prev = 1;
      std::vector<int> count(static_cast<std::size_t>(k) + 1, 0);
      for (NodeId r = 0; r < d; ++r) {
        const NodeId q = quantile_of_rank(r, d, k);
        ASSERT_GE(q, 1);
        ASSERT_LE(q, k);
        ASSERT_GE(q, prev);
        prev = q;
        ++count[static_cast<std::size_t>(q)];
      }
      int lo = d;
      int hi = 0;
      for (NodeId q = 1; q <= k; ++q) {
        const int c = count[static_cast<std::size_t>(q)];
        if (c > 0) {
          lo = std::min(lo, c);
          hi = std::max(hi, c);
        }
      }
      EXPECT_LE(hi - lo, 1) << "d=" << d << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace dasm::core
