#include "core/player.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::core {

NodeId quantile_of_rank(NodeId rank, NodeId degree, NodeId k) {
  DASM_DCHECK(degree >= 1 && rank >= 0 && rank < degree && k >= 1);
  return static_cast<NodeId>(
      (static_cast<std::int64_t>(rank) * k) / degree + 1);
}

// ---------------------------------------------------------------- ManPlayer

void ManPlayer::reset(NodeId node_id, PreferenceList pref, NodeId k,
                      NodeId woman_id_offset, mm::Node& mm_node) {
  DASM_CHECK(k >= 1);
  node_id_ = node_id;
  pref_ = pref;
  k_ = k;
  woman_id_offset_ = woman_id_offset;
  mm_ = &mm_node;
  in_q_.assign(static_cast<std::size_t>(pref.degree()), true);
  q_size_ = pref.degree();
  partner_ = kNoNode;
  clear_active_set();
  accepted_by_.clear();
  active_ = true;
  dropped_ = false;
  mm_engaged_ = false;
}

void ManPlayer::set_outer_gate(std::int64_t threshold) {
  active_ = static_cast<std::int64_t>(q_size_) >= threshold;
}

void ManPlayer::begin_quantile_match() {
  clear_active_set();
  if (dropped_ || !active_ || partner_ != kNoNode) return;
  // A <- Q_i for the best nonempty quantile i (Algorithm 2). Ranks are
  // sorted by preference, so quantile i is one block of ranks, and A is
  // its surviving members.
  const NodeId degree = pref_.degree();
  NodeId r = 0;
  while (r < degree && !in_q_[static_cast<std::size_t>(r)]) ++r;
  if (r == degree) return;
  const NodeId best_quantile = quantile_of_rank(r, degree, k_);
  a_lo_ = r;
  for (; r < degree && quantile_of_rank(r, degree, k_) == best_quantile;
       ++r) {
    if (in_q_[static_cast<std::size_t>(r)]) ++a_size_;
  }
  a_hi_ = r;
}

void ManPlayer::process_rejections(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type != MsgType::kReject) continue;
    const NodeId w = e.from - woman_id_offset_;
    const NodeId r = pref_.rank_of(w);
    DASM_CHECK_MSG(r != kNoNode,
                   "man " << node_id_ << " rejected by unranked woman " << w);
    DASM_CHECK_MSG(in_q_[static_cast<std::size_t>(r)],
                   "woman " << w << " rejected man " << node_id_ << " twice");
    in_q_[static_cast<std::size_t>(r)] = false;
    --q_size_;
    if (r >= a_lo_ && r < a_hi_) --a_size_;
    if (partner_ == w) partner_ = kNoNode;
  }
}

void ManPlayer::propose_round(Network& net) {
  mm_engaged_ = false;
  if (dropped_ || partner_ != kNoNode) return;
  for (NodeId r = a_lo_; r < a_hi_; ++r) {
    if (!in_q_[static_cast<std::size_t>(r)]) continue;
    net.send(node_id_, pref_.at_rank(r) + woman_id_offset_,
             Message{MsgType::kPropose});
  }
}

void ManPlayer::mm_first_round(InboxView inbox,
                               Network& net) {
  accepted_by_.clear();
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kAccept) accepted_by_.push_back(e.from);
  }
  mm_->reset(node_id_, /*is_left=*/true, accepted_by_);
  mm_engaged_ = true;
  mm_->on_round(inbox, net);
}

void ManPlayer::mm_round(InboxView inbox, Network& net) {
  DASM_DCHECK(mm_engaged_);
  mm_->on_round(inbox, net);
}

void ManPlayer::resolve_round() {
  if (!mm_engaged_) return;
  const NodeId p0 = mm_->partner();
  if (p0 == kNoNode) return;
  DASM_CHECK_MSG(partner_ == kNoNode,
                 "man " << node_id_ << " matched in M0 while already engaged");
  partner_ = p0 - woman_id_offset_;
  DASM_DCHECK(pref_.contains(partner_));
  clear_active_set();  // A <- {} (Step 4)
}

bool ManPlayer::drop_if_unsatisfied() {
  if (dropped_ || !mm_engaged_) return false;
  if (mm_->quiescent()) return false;
  // Unsatisfied per Definition 3 at truncation: unmatched in M0 with an
  // unmatched accepted neighbour. Removed from play (§5.2, footnote 2).
  dropped_ = true;
  clear_active_set();
  return true;
}

void ManPlayer::finalize(InboxView inbox) {
  process_rejections(inbox);
}

// -------------------------------------------------------------- WomanPlayer

void WomanPlayer::reset(NodeId node_id, PreferenceList pref, NodeId k,
                        mm::Node& mm_node) {
  DASM_CHECK(k >= 1);
  node_id_ = node_id;
  pref_ = pref;
  k_ = k;
  mm_ = &mm_node;
  in_q_.assign(static_cast<std::size_t>(pref.degree()), true);
  q_size_ = pref.degree();
  partner_ = kNoNode;
  accepted_.clear();
  mm_engaged_ = false;
}

void WomanPlayer::accept_round(InboxView inbox,
                               Network& net) {
  accepted_.clear();
  mm_engaged_ = false;
  // Find the best (smallest) quantile among this round's proposers. Every
  // proposer is still in Q — membership pruning is symmetric — hence in a
  // strictly better quantile than the current partner (Lemma 1).
  NodeId best_quantile = kNoNode;
  for (const Envelope& e : inbox) {
    if (e.msg.type != MsgType::kPropose) continue;
    const NodeId m = e.from;
    const NodeId r = pref_.rank_of(m);
    DASM_CHECK_MSG(r != kNoNode,
                   "woman " << node_id_ << " got proposal from unranked man "
                            << m);
    DASM_CHECK_MSG(in_q_[static_cast<std::size_t>(r)],
                   "proposal from pruned man " << m << " to woman "
                                               << node_id_);
    const NodeId q = quantile_of_rank(r, pref_.degree(), k_);
    if (best_quantile == kNoNode || q < best_quantile) best_quantile = q;
  }
  if (best_quantile == kNoNode) return;
  if (partner_ != kNoNode) {
    DASM_DCHECK(best_quantile <
                quantile_of_rank(pref_.rank_of(partner_), pref_.degree(),
                                 k_));
  }
  // Accept that quantile's proposers, in inbox order.
  for (const Envelope& e : inbox) {
    if (e.msg.type != MsgType::kPropose) continue;
    const NodeId m = e.from;
    if (quantile_of_rank(pref_.rank_of(m), pref_.degree(), k_) ==
        best_quantile) {
      accepted_.push_back(m);
      net.send(node_id_, m, Message{MsgType::kAccept});
    }
  }
}

void WomanPlayer::mm_first_round(InboxView inbox,
                                 Network& net) {
  mm_->reset(node_id_, /*is_left=*/false, accepted_);
  mm_engaged_ = true;
  mm_->on_round(inbox, net);
}

void WomanPlayer::mm_round(InboxView inbox, Network& net) {
  DASM_DCHECK(mm_engaged_);
  mm_->on_round(inbox, net);
}

void WomanPlayer::resolve_round(Network& net) {
  if (!mm_engaged_) return;
  const NodeId p0 = mm_->partner();
  if (p0 == kNoNode) return;
  DASM_DCHECK(std::find(accepted_.begin(), accepted_.end(), p0) !=
              accepted_.end());
  const NodeId q0 =
      quantile_of_rank(pref_.rank_of(p0), pref_.degree(), k_);
  // Lemma 1 (monotonicity): a new partner always sits in a strictly
  // better quantile than the one he displaces.
  DASM_DCHECK(partner_ == kNoNode ||
              q0 < quantile_of_rank(pref_.rank_of(partner_),
                                    pref_.degree(), k_));
  // Reject every remaining Q member in quantile q0 or worse, other than
  // the new partner. This prunes the old partner too (his quantile is
  // strictly worse than q0), which is how he learns he was displaced.
  for (NodeId r = 0; r < pref_.degree(); ++r) {
    if (!in_q_[static_cast<std::size_t>(r)]) continue;
    if (quantile_of_rank(r, pref_.degree(), k_) < q0) continue;
    const NodeId m = pref_.at_rank(r);
    if (m == p0) continue;
    net.send(node_id_, m, Message{MsgType::kReject});
    in_q_[static_cast<std::size_t>(r)] = false;
    --q_size_;
  }
  partner_ = p0;
}

}  // namespace dasm::core
