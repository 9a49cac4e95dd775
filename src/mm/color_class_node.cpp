#include "mm/color_class_node.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dasm::mm {

namespace {

// One Cole–Vishkin step: recolor `own` against the parent's color by the
// lowest bit position at which the two differ.
std::int64_t cv_update(std::int64_t own, std::int64_t parent_color) {
  DASM_DCHECK(own != parent_color);
  const int i =
      std::countr_zero(static_cast<std::uint64_t>(own ^ parent_color));
  return 2 * static_cast<std::int64_t>(i) + ((own >> i) & 1);
}

int bits_of(std::int64_t v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return std::max(bits, 1);
}

}  // namespace

int cole_vishkin_iterations(NodeId n) {
  DASM_CHECK(n >= 1);
  // Colors start in [0, n); each step maps colors < cap into
  // [0, 2 * bits(cap - 1)). Iterate the cap until it reaches 6.
  std::int64_t cap = std::max<std::int64_t>(n, 2);
  int iters = 0;
  while (cap > 6) {
    cap = 2 * bits_of(cap - 1);
    ++iters;
  }
  return iters;
}

int color_class_rounds_per_iteration(NodeId n_bound) {
  return 1 + (cole_vishkin_iterations(n_bound) + 1) + 3 * 6 * 3;
}

ColorClassNode::ColorClassNode(NodeId delta_bound, NodeId n_bound) {
  set_bounds(delta_bound, n_bound);
}

void ColorClassNode::set_bounds(NodeId delta_bound, NodeId n_bound) {
  DASM_CHECK(delta_bound >= 1);
  delta_ = delta_bound;
  cv_iters_ = cole_vishkin_iterations(n_bound);
  per_class_ = color_class_rounds_per_iteration(n_bound);
}

void ColorClassNode::reset(NodeId self, bool /*is_left*/,
                           std::span<const NodeId> neighbors) {
  DASM_CHECK_MSG(static_cast<NodeId>(neighbors.size()) <= delta_,
                 "node " << self << " has degree " << neighbors.size()
                         << " above the declared bound " << delta_);
  self_ = self;
  neighbors_.assign(neighbors.begin(), neighbors.end());
  neighbor_alive_.assign(neighbors_.size(), true);
  peer_port_.assign(neighbors_.size(), kNoNode);
  alive_ = !neighbors_.empty();
  partner_ = kNoNode;
  round_ = 0;
  class_nbrs_.clear();
  parent_ = kNoNode;
}

void ColorClassNode::mark_dead(NodeId v) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) neighbor_alive_[i] = false;
  }
}

bool ColorClassNode::neighbor_live(NodeId v) const {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) return neighbor_alive_[i];
  }
  return false;
}

bool ColorClassNode::any_live_neighbor() const {
  return std::find(neighbor_alive_.begin(), neighbor_alive_.end(), true) !=
         neighbor_alive_.end();
}

void ColorClassNode::process_withdrawals(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void ColorClassNode::withdraw(Network& net) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbor_alive_[i] && neighbors_[i] != partner_) {
      net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
    }
  }
}

void ColorClassNode::announce_color(std::int64_t within, Network& net) {
  // Only a Cole–Vishkin update reads the color, and the last one runs at
  // within == 1 + cv_iters_: a color set at or after it is never read.
  if (within > cv_iters_) return;
  for (NodeId w : class_nbrs_) {
    if (neighbor_live(w)) {
      net.send(self_, w, Message{MsgType::kColor, color_});
    }
  }
}

void ColorClassNode::on_round(InboxView inbox,
                              Network& net) {
  process_withdrawals(inbox);
  const std::int64_t r = round_++;

  if (r == 0) {
    if (alive_) {
      for (std::size_t i = 0; i < neighbors_.size(); ++i) {
        net.send(self_, neighbors_[i],
                 Message{MsgType::kPort, static_cast<std::int64_t>(i)});
      }
    }
    return;
  }
  if (r == 1) {
    for (const Envelope& e : inbox) {
      if (e.msg.type != MsgType::kPort) continue;
      for (std::size_t i = 0; i < neighbors_.size(); ++i) {
        if (neighbors_[i] == e.from) {
          peer_port_[i] = static_cast<NodeId>(e.msg.a);
        }
      }
    }
  }

  const std::int64_t rel = r - 1;
  const std::int64_t cls = rel / per_class_;
  if (cls >= static_cast<std::int64_t>(delta_) * delta_) {
    alive_ = false;  // schedule exhausted: the matching is maximal
    return;
  }
  if (!alive_) return;
  if (!any_live_neighbor()) {
    alive_ = false;  // isolated: every acceptable partner is matched
    return;
  }

  const auto a = static_cast<NodeId>(cls / delta_);
  const auto b = static_cast<NodeId>(cls % delta_);
  const std::int64_t within = rel % per_class_;

  if (within == 0) {
    // Membership: my class edge as lower endpoint has my port a and peer
    // port b; as higher endpoint my port b and peer port a.
    class_nbrs_.clear();
    if (static_cast<std::size_t>(a) < neighbors_.size() &&
        neighbor_alive_[static_cast<std::size_t>(a)] &&
        neighbors_[static_cast<std::size_t>(a)] > self_ &&
        peer_port_[static_cast<std::size_t>(a)] == b) {
      class_nbrs_.push_back(neighbors_[static_cast<std::size_t>(a)]);
    }
    if (static_cast<std::size_t>(b) < neighbors_.size() &&
        neighbor_alive_[static_cast<std::size_t>(b)] &&
        neighbors_[static_cast<std::size_t>(b)] < self_ &&
        peer_port_[static_cast<std::size_t>(b)] == a) {
      class_nbrs_.push_back(neighbors_[static_cast<std::size_t>(b)]);
    }
    if (in_class()) {
      parent_ = *std::max_element(class_nbrs_.begin(), class_nbrs_.end());
      rooted_ = false;
      color_ = self_;
      for (NodeId w : class_nbrs_) {
        net.send(self_, w, Message{MsgType::kParent, parent_});
      }
    }
    return;
  }
  if (within == 1) {
    // Root detection, then announce the initial color.
    if (!in_class()) return;
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kParent && e.from == parent_ &&
          static_cast<NodeId>(e.msg.a) == self_ && self_ > e.from) {
        rooted_ = true;
      }
    }
    announce_color(within, net);
    return;
  }
  if (within <= 1 + cv_iters_) {
    // Cole–Vishkin update against the parent's last announced color.
    if (!in_class()) return;
    std::int64_t parent_color = -1;
    if (rooted_) {
      parent_color = color_ ^ 1;
    } else {
      for (const Envelope& e : inbox) {
        if (e.msg.type == MsgType::kColor && e.from == parent_) {
          parent_color = e.msg.a;
        }
      }
      DASM_CHECK_MSG(parent_color >= 0,
                     "node " << self_ << " missed its parent's color");
    }
    color_ = cv_update(color_, parent_color);
    announce_color(within, net);
    return;
  }

  // Matching sweeps: 3 sweeps x 6 color phases x (propose, accept,
  // resolve).
  const std::int64_t idx = within - (2 + cv_iters_);
  const std::int64_t phase = idx % 3;
  const std::int64_t color_phase = (idx / 3) % 6;
  if (phase == 0) {
    if (!in_class() || color_ != color_phase) return;
    NodeId target = kNoNode;
    for (NodeId w : class_nbrs_) {
      if (neighbor_live(w) && (target == kNoNode || w < target)) target = w;
    }
    if (target != kNoNode) {
      net.send(self_, target, Message{MsgType::kMmPropose});
    }
  } else if (phase == 1) {
    NodeId best = kNoNode;
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kMmPropose &&
          (best == kNoNode || e.from < best)) {
        best = e.from;
      }
    }
    if (best != kNoNode) {
      partner_ = best;
      alive_ = false;
      net.send(self_, best, Message{MsgType::kMmAcceptP});
      withdraw(net);
    }
  } else {
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kMmAcceptP) {
        partner_ = e.from;
        alive_ = false;
        withdraw(net);
        break;
      }
    }
  }
}

}  // namespace dasm::mm
