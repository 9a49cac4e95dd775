#include "mm/pointer_greedy.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::mm {

void PointerGreedyNode::reset(NodeId self, bool is_left,
                              std::span<const NodeId> neighbors) {
  self_ = self;
  is_left_ = is_left;
  neighbors_.assign(neighbors.begin(), neighbors.end());
  neighbor_alive_.assign(neighbors_.size(), true);
  alive_ = !neighbors_.empty();
  partner_ = kNoNode;
  phase_ = Phase::kPropose;
}

void PointerGreedyNode::mark_dead(NodeId v) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) neighbor_alive_[i] = false;
  }
}

NodeId PointerGreedyNode::first_live_neighbor() const {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbor_alive_[i]) return neighbors_[i];
  }
  return kNoNode;
}

void PointerGreedyNode::process_withdrawals(
    InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void PointerGreedyNode::withdraw_from_others(Network& net) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbor_alive_[i] && neighbors_[i] != partner_) {
      net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
    }
  }
}

void PointerGreedyNode::on_round(InboxView inbox,
                                 Network& net) {
  process_withdrawals(inbox);
  if (alive_ && first_live_neighbor() == kNoNode) {
    alive_ = false;  // isolated: every acceptable partner matched elsewhere
  }

  switch (phase_) {
    case Phase::kPropose: {
      if (is_left_ && alive_) {
        net.send(self_, first_live_neighbor(), Message{MsgType::kMmPropose});
      }
      phase_ = Phase::kAccept;
      break;
    }
    case Phase::kAccept: {
      if (!is_left_ && alive_) {
        NodeId best = kNoNode;
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmPropose) {
            if (best == kNoNode || e.from < best) best = e.from;
          }
        }
        if (best != kNoNode) {
          partner_ = best;
          alive_ = false;
          net.send(self_, best, Message{MsgType::kMmAcceptP});
          withdraw_from_others(net);
        }
      }
      phase_ = Phase::kResolve;
      break;
    }
    case Phase::kResolve: {
      if (is_left_ && alive_) {
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmAcceptP) {
            partner_ = e.from;
            alive_ = false;
            withdraw_from_others(net);
            break;
          }
        }
      }
      phase_ = Phase::kPropose;
      break;
    }
  }
}

}  // namespace dasm::mm
