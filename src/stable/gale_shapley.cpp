#include "stable/gale_shapley.hpp"

#include <vector>

#include "util/check.hpp"

namespace dasm {

namespace {

// Generic proposer-side GS. `proposer_pref` / `acceptor_pref` index the
// proposing and accepting sides; `proposer_node` / `acceptor_node` map side
// indices to communication-graph node ids.
template <typename ProposerPref, typename AcceptorPref, typename ProposerNode,
          typename AcceptorNode>
GaleShapleyResult run_gs(NodeId n_proposers, NodeId n_acceptors,
                         NodeId node_count, ProposerPref&& proposer_pref,
                         AcceptorPref&& acceptor_pref,
                         ProposerNode&& proposer_node,
                         AcceptorNode&& acceptor_node) {
  std::vector<NodeId> next_rank(static_cast<std::size_t>(n_proposers), 0);
  std::vector<NodeId> held(static_cast<std::size_t>(n_acceptors), kNoNode);
  std::vector<NodeId> free_stack;
  for (NodeId p = n_proposers - 1; p >= 0; --p) free_stack.push_back(p);

  GaleShapleyResult result;
  while (!free_stack.empty()) {
    const NodeId p = free_stack.back();
    const PreferenceList pref = proposer_pref(p);
    if (next_rank[static_cast<std::size_t>(p)] >= pref.degree()) {
      free_stack.pop_back();  // exhausted: stays unmatched
      continue;
    }
    const NodeId a = pref.at_rank(next_rank[static_cast<std::size_t>(p)]++);
    ++result.proposals;
    NodeId& holder = held[static_cast<std::size_t>(a)];
    if (holder == kNoNode) {
      holder = p;
      free_stack.pop_back();
    } else if (acceptor_pref(a).prefers(p, holder)) {
      const NodeId displaced = holder;
      holder = p;
      free_stack.pop_back();
      free_stack.push_back(displaced);
    }
    // else: rejected, p stays on the stack and tries his next choice.
  }

  Matching m(node_count);
  for (NodeId a = 0; a < n_acceptors; ++a) {
    const NodeId p = held[static_cast<std::size_t>(a)];
    if (p != kNoNode) m.add(proposer_node(p), acceptor_node(a));
  }
  result.matching = std::move(m);
  return result;
}

}  // namespace

GaleShapleyResult gale_shapley(const Instance& inst) {
  const auto& g = inst.graph();
  return run_gs(
      inst.n_men(), inst.n_women(), g.node_count(),
      [&](NodeId m) { return inst.man_pref(m); },
      [&](NodeId w) { return inst.woman_pref(w); },
      [&](NodeId m) { return g.man_id(m); },
      [&](NodeId w) { return g.woman_id(w); });
}

GaleShapleyResult gale_shapley_woman_proposing(const Instance& inst) {
  const auto& g = inst.graph();
  return run_gs(
      inst.n_women(), inst.n_men(), g.node_count(),
      [&](NodeId w) { return inst.woman_pref(w); },
      [&](NodeId m) { return inst.man_pref(m); },
      [&](NodeId w) { return g.woman_id(w); },
      [&](NodeId m) { return g.man_id(m); });
}

}  // namespace dasm
