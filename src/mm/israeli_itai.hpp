// Israeli–Itai randomized distributed maximal matching (Appendix A,
// Algorithm 4 "MatchingRound").
//
// One MatchingRound costs four communication rounds:
//   1. every live vertex picks a uniformly random live neighbour and
//      proposes the oriented edge (kMmPick);
//   2. every vertex with incoming picks keeps one uniformly at random and
//      notifies its source (kMmKeep) — the kept edges form the sparse
//      graph G';
//   3. every vertex with an incident G' edge chooses one uniformly at
//      random (kMmChoose); edges chosen from both sides are matched;
//   4. matched vertices withdraw, announcing kMmMatched to live
//      neighbours; vertices left without live neighbours drop out.
//
// Lemma 8: the expected number of surviving vertices decays geometrically,
// so O(log(n/eta)) MatchingRounds yield a maximal matching with
// probability at least 1 - eta (Corollary 1).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mm/node.hpp"

namespace dasm::mm {

class IsraeliItaiNode final : public Node {
 public:
  /// `rng` must be an independent stream per node (derive_stream(seed, id)).
  explicit IsraeliItaiNode(Xoshiro256 rng = Xoshiro256{}) : rng_(rng) {}

  /// Starts the node over on `rng`, keeping its storage (a NodePool
  /// re-seeds its nodes this way for every run).
  void reseed(Xoshiro256 rng) { rng_ = rng; }

  void reset(NodeId self, bool is_left,
             std::span<const NodeId> neighbors) override;
  void on_round(InboxView inbox, Network& net) override;
  NodeId partner() const override { return partner_; }
  bool quiescent() const override { return !alive_; }
  int rounds_per_iteration() const override { return 4; }

 private:
  enum class Phase { kPick, kKeep, kChoose, kResolve };

  void process_withdrawals(InboxView inbox);
  void mark_dead(NodeId v);
  bool has_live_neighbor() const { return live_count_ > 0; }
  bool port_live(std::size_t port) const {
    return (live_words_[port / 64] >> (port % 64)) & 1;
  }
  NodeId random_live_neighbor();

  Xoshiro256 rng_;
  NodeId self_ = kNoNode;
  Phase phase_ = Phase::kPick;
  bool alive_ = false;
  NodeId partner_ = kNoNode;

  // Ports are positions in neighbors_ (the reset order, which fixes which
  // neighbour the k-th live port is). A withdrawal finds its ports by
  // binary search in port_index_ and clears their bits, so it costs
  // O(log deg); the live count answers "any left?".
  std::vector<NodeId> neighbors_;
  std::vector<std::uint64_t> live_words_;  // bit p set = port p live
  std::size_t live_count_ = 0;
  std::vector<std::pair<NodeId, std::uint32_t>> port_index_;  // (id, port)

  NodeId picked_out_ = kNoNode;  // step-1 outgoing pick
  NodeId kept_in_ = kNoNode;     // step-2 kept incoming edge source
  bool out_was_kept_ = false;    // peer kept our step-1 pick
  NodeId chosen_ = kNoNode;      // step-3 choice
};

}  // namespace dasm::mm
