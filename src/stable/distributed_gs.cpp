#include "stable/distributed_gs.hpp"

#include <vector>

#include "util/check.hpp"

namespace dasm {

DistributedGsResult distributed_gale_shapley(const Instance& inst,
                                             std::int64_t max_sweeps) {
  const auto& bg = inst.graph();
  Network net(bg.graph());

  const NodeId nm = inst.n_men();
  const NodeId nw = inst.n_women();

  // Man state: the woman he currently has a live proposal with (kNoNode if
  // free) and the next rank he would propose to.
  std::vector<NodeId> target(static_cast<std::size_t>(nm), kNoNode);
  std::vector<NodeId> next_rank(static_cast<std::size_t>(nm), 0);
  // Woman state: the man whose proposal she currently holds.
  std::vector<NodeId> hold(static_cast<std::size_t>(nw), kNoNode);

  // Total messages are bounded by proposals + rejections <= 2|E| and every
  // active sweep sends at least one, so this cap is never the stopper; it
  // guards against protocol bugs.
  const std::int64_t hard_cap = 2 * inst.edge_count() + 2;

  DistributedGsResult result;
  while (true) {
    if (max_sweeps > 0 && result.sweeps >= max_sweeps) break;
    DASM_CHECK_MSG(result.sweeps <= hard_cap,
                   "distributed GS exceeded its sweep bound");
    const std::int64_t msgs_before = net.stats().messages;

    // Round A: process rejections from the previous sweep, then propose.
    net.begin_round();
    for (NodeId m = 0; m < nm; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      for (const Envelope& e : net.inbox(bg.man_id(m))) {
        if (e.msg.type != MsgType::kGsReject) continue;
        const NodeId w = bg.woman_index(e.from);
        if (w == target[mi]) {
          target[mi] = kNoNode;
          ++next_rank[mi];
        }
      }
      const auto& pref = inst.man_pref(m);
      if (target[mi] == kNoNode && next_rank[mi] < pref.degree()) {
        target[mi] = pref.at_rank(next_rank[mi]);
        net.send(bg.man_id(m), bg.woman_id(target[mi]),
                 Message{MsgType::kGsPropose});
      }
    }
    net.end_round();

    // Round B: women keep their best suitor, reject the rest.
    net.begin_round();
    for (NodeId w = 0; w < nw; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      const auto& pref = inst.woman_pref(w);
      NodeId best = hold[wi];
      std::vector<NodeId> losers;
      for (const Envelope& e : net.inbox(bg.woman_id(w))) {
        if (e.msg.type != MsgType::kGsPropose) continue;
        const NodeId m = bg.man_index(e.from);
        if (best == kNoNode || pref.prefers(m, best)) {
          if (best != kNoNode) losers.push_back(best);
          best = m;
        } else {
          losers.push_back(m);
        }
      }
      for (NodeId loser : losers) {
        net.send(bg.woman_id(w), bg.man_id(loser),
                 Message{MsgType::kGsReject});
      }
      hold[wi] = best;
    }
    net.end_round();

    ++result.sweeps;
    if (net.stats().messages == msgs_before) {
      result.converged = true;
      break;
    }
  }

  Matching m(bg.node_count());
  for (NodeId w = 0; w < nw; ++w) {
    const NodeId held = hold[static_cast<std::size_t>(w)];
    if (held != kNoNode) m.add(bg.man_id(held), bg.woman_id(w));
  }
  result.matching = std::move(m);
  result.net = net.stats();
  return result;
}

}  // namespace dasm
