// Deterministic distributed maximal matching for bipartite graphs.
//
// This protocol occupies the architectural slot of the
// Hańćkowiak–Karoński–Panconesi deterministic maximal-matching algorithm
// [6] that the paper invokes as a black box (Theorem 2); see DESIGN.md §2
// for the substitution rationale. Its output is always a *maximal*
// matching — the property all of the paper's stability guarantees rely
// on — and it is deterministic, so ASM built on it is deterministic.
//
// One sweep costs three communication rounds:
//   1. every live left vertex proposes (kMmPropose) to its first live
//      neighbour in fixed adjacency order;
//   2. every live right vertex receiving proposals accepts the
//      smallest-id proposer (kMmAcceptP), withdraws (kMmMatched) towards
//      its other live neighbours, and leaves the residual graph;
//   3. accepted left vertices withdraw towards their other live
//      neighbours; rejected ones advance their pointer.
//
// Every sweep with a live left vertex matches at least one edge, so at
// most min(|L|, |R|) + 1 sweeps are needed; on the instance families in
// this repository convergence is empirically logarithmic.
#pragma once

#include <vector>

#include "mm/node.hpp"

namespace dasm::mm {

class PointerGreedyNode final : public Node {
 public:
  void reset(NodeId self, bool is_left,
             std::span<const NodeId> neighbors) override;
  void on_round(InboxView inbox, Network& net) override;
  NodeId partner() const override { return partner_; }
  bool quiescent() const override { return !alive_; }
  int rounds_per_iteration() const override { return 3; }

 private:
  enum class Phase { kPropose, kAccept, kResolve };

  void process_withdrawals(InboxView inbox);
  void mark_dead(NodeId v);
  NodeId first_live_neighbor() const;
  void withdraw_from_others(Network& net);

  NodeId self_ = kNoNode;
  bool is_left_ = false;
  Phase phase_ = Phase::kPropose;
  bool alive_ = false;
  NodeId partner_ = kNoNode;

  std::vector<NodeId> neighbors_;     // fixed adjacency order
  std::vector<bool> neighbor_alive_;  // parallel to neighbors_
};

}  // namespace dasm::mm
