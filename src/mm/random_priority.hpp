// Random-priority (Luby-style) distributed maximal matching.
//
// A second randomized backend, structurally different from Israeli–Itai:
// instead of random proposal chains, every live edge draws a random
// priority (announced by its lower-id endpoint) and the locally minimal
// edges — minima at BOTH endpoints — join the matching. Ties are broken
// by endpoint ids, so the order over edges is strict; the globally
// minimal live edge is always matched, guaranteeing progress, and in
// expectation a constant fraction of edges disappears per iteration.
//
// One iteration costs three communication rounds:
//   1. lower-id endpoints draw and announce edge priorities (kMmPriority);
//   2. every vertex chooses its minimal incident live edge (kMmChoose);
//   3. mutually chosen edges are matched; matched vertices withdraw
//      (kMmMatched).
//
// Used by the backend-ablation experiment (A1) and available to the ASM
// engine like the other backends.
#pragma once

#include <vector>

#include "mm/node.hpp"

namespace dasm::mm {

class RandomPriorityNode final : public Node {
 public:
  explicit RandomPriorityNode(Xoshiro256 rng = Xoshiro256{}) : rng_(rng) {}

  /// Starts the node over on `rng`, keeping its storage (see
  /// IsraeliItaiNode::reseed).
  void reseed(Xoshiro256 rng) { rng_ = rng; }

  void reset(NodeId self, bool is_left,
             std::span<const NodeId> neighbors) override;
  void on_round(InboxView inbox, Network& net) override;
  NodeId partner() const override { return partner_; }
  bool quiescent() const override { return !alive_; }
  int rounds_per_iteration() const override { return 3; }

 private:
  enum class Phase { kAnnounce, kChoose, kResolve };

  void process_withdrawals(InboxView inbox);
  void mark_dead(NodeId v);
  bool has_live_neighbor() const;

  Xoshiro256 rng_;
  NodeId self_ = kNoNode;
  Phase phase_ = Phase::kAnnounce;
  bool alive_ = false;
  NodeId partner_ = kNoNode;

  std::vector<NodeId> neighbors_;
  std::vector<bool> neighbor_alive_;
  std::vector<std::int32_t> edge_priority_;  // parallel; -1 = unknown
  NodeId chosen_ = kNoNode;
};

}  // namespace dasm::mm
