// Per-processor state machines for ASM (§3.1).
//
// A ManPlayer holds his quantized preferences Q (membership flags over his
// ranked list), his partner p, and his active set A; a WomanPlayer holds
// her quantized preferences, her partner, and the set G0 of proposals she
// accepted in the current ProposalRound. Both embed a maximal-matching
// node (mm::Node) that runs Step 3 on the accepted-proposal graph.
//
// The engine drives every player through the globally known phase
// sequence; players only ever read their own state and their inbox, so
// each method corresponds to a valid CONGEST round (see DESIGN.md).
#pragma once

#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "mm/node.hpp"
#include "stable/preferences.hpp"

namespace dasm::core {

/// 1-based quantile of 0-based `rank` in a list of `degree` entries split
/// into k quantiles (§3.1; see stable/preferences.hpp).
NodeId quantile_of_rank(NodeId rank, NodeId degree, NodeId k);

class ManPlayer {
 public:
  /// `woman_id_offset` converts the woman indices in `pref` to network
  /// node ids (women are numbered after the men).
  ManPlayer(NodeId node_id, PreferenceList pref, NodeId k,
            NodeId woman_id_offset, std::unique_ptr<mm::Node> mm_node);

  NodeId node_id() const { return node_id_; }
  /// Current partner as a woman index, or kNoNode.
  NodeId partner() const { return partner_; }
  /// |Q|: acceptable partners who have not rejected him.
  NodeId q_size() const { return q_size_; }
  /// Good (§4): matched, or rejected by every acceptable partner.
  bool good() const { return partner_ != kNoNode || q_size_ == 0; }
  bool dropped() const { return dropped_; }
  /// Participates in the current outer iteration (|Q| >= threshold).
  bool active() const { return active_; }
  /// True if the next propose phase would send proposals.
  bool would_propose() const {
    return partner_ == kNoNode && !active_targets_.empty();
  }

  /// Outer-loop gate (Algorithm 3): active iff |Q| >= threshold.
  void set_outer_gate(std::int64_t threshold);

  /// QuantileMatch start (Algorithm 2): if unmatched and active, A <- the
  /// members of his best nonempty quantile.
  void begin_quantile_match();

  /// ProposalRound Step 1: propose to every woman in A. (Step 5 — the
  /// processing of the previous round's rejections — happens in
  /// finalize(), invoked right after their delivery.)
  void propose_round(Network& net);

  /// First round of the embedded maximal matching: his G0 neighbours are
  /// the women whose ACCEPT is in the inbox.
  void mm_first_round(InboxView inbox, Network& net);
  void mm_round(InboxView inbox, Network& net);
  bool mm_quiescent() const { return mm_->quiescent(); }

  /// ProposalRound Step 4, man side: adopt the M0 partner if matched.
  void resolve_round();

  /// §5.2: if the truncated matching left him Definition-3-unsatisfied,
  /// remove him from play. Returns true if he was dropped now.
  bool drop_if_unsatisfied();

  /// Processes any rejections still in the inbox after the final round.
  void finalize(InboxView inbox);

 private:
  void process_rejections(InboxView inbox);

  NodeId node_id_;
  PreferenceList pref_;  // a view into the Instance, which outlives the run
  NodeId k_;
  NodeId woman_id_offset_;
  std::unique_ptr<mm::Node> mm_;

  std::vector<bool> in_q_;  // Q membership by rank
  NodeId q_size_ = 0;
  NodeId partner_ = kNoNode;            // woman index
  std::vector<NodeId> active_targets_;  // A, as woman indices
  bool active_ = true;
  bool dropped_ = false;
  bool mm_engaged_ = false;  // reset() was called this ProposalRound
};

class WomanPlayer {
 public:
  WomanPlayer(NodeId node_id, PreferenceList pref, NodeId k,
              std::unique_ptr<mm::Node> mm_node);

  NodeId node_id() const { return node_id_; }
  /// Current partner as a man index (== man node id), or kNoNode.
  NodeId partner() const { return partner_; }
  NodeId q_size() const { return q_size_; }

  /// ProposalRound Step 2: accept every proposal from the best quantile
  /// that proposed; the accepted men form her side of G0.
  void accept_round(InboxView inbox, Network& net);
  /// True if the last accept_round() accepted a proposal, i.e. she is in
  /// this ProposalRound's G0.
  bool accepted_any() const { return !accepted_.empty(); }

  void mm_first_round(InboxView inbox, Network& net);
  void mm_round(InboxView inbox, Network& net);
  bool mm_quiescent() const { return mm_->quiescent(); }

  /// ProposalRound Step 4: if matched in M0, reject every remaining Q
  /// member in a quantile no better than the new partner's and prune them
  /// from Q (Lemma 1's monotonicity follows from this pruning).
  void resolve_round(Network& net);

 private:
  NodeId node_id_;
  PreferenceList pref_;  // a view into the Instance, which outlives the run
  NodeId k_;
  std::unique_ptr<mm::Node> mm_;

  std::vector<bool> in_q_;  // Q membership by rank
  NodeId q_size_ = 0;
  NodeId partner_ = kNoNode;     // man index
  std::vector<NodeId> accepted_;  // G0 neighbours this round (man ids)
  bool mm_engaged_ = false;
};

}  // namespace dasm::core
