#include "mm/random_priority.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::mm {

namespace {

// Priorities fit comfortably inside the CONGEST message budget.
constexpr std::int32_t kPriorityRange = 1 << 14;

}  // namespace

void RandomPriorityNode::reset(NodeId self, bool /*is_left*/,
                               std::span<const NodeId> neighbors) {
  self_ = self;
  neighbors_.assign(neighbors.begin(), neighbors.end());
  neighbor_alive_.assign(neighbors_.size(), true);
  edge_priority_.assign(neighbors_.size(), -1);
  alive_ = !neighbors_.empty();
  partner_ = kNoNode;
  phase_ = Phase::kAnnounce;
  chosen_ = kNoNode;
}

void RandomPriorityNode::mark_dead(NodeId v) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) neighbor_alive_[i] = false;
  }
}

bool RandomPriorityNode::has_live_neighbor() const {
  return std::find(neighbor_alive_.begin(), neighbor_alive_.end(), true) !=
         neighbor_alive_.end();
}

void RandomPriorityNode::process_withdrawals(
    InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void RandomPriorityNode::on_round(InboxView inbox,
                                  Network& net) {
  process_withdrawals(inbox);

  switch (phase_) {
    case Phase::kAnnounce: {
      chosen_ = kNoNode;
      std::fill(edge_priority_.begin(), edge_priority_.end(), -1);
      if (alive_ && !has_live_neighbor()) alive_ = false;
      if (alive_) {
        for (std::size_t i = 0; i < neighbors_.size(); ++i) {
          if (!neighbor_alive_[i]) continue;
          if (self_ < neighbors_[i]) {
            const auto p =
                static_cast<std::int32_t>(rng_.below(kPriorityRange));
            edge_priority_[i] = p;
            net.send(self_, neighbors_[i],
                     Message{MsgType::kMmPriority, p});
          }
        }
      }
      phase_ = Phase::kChoose;
      break;
    }
    case Phase::kChoose: {
      if (alive_) {
        for (const Envelope& e : inbox) {
          if (e.msg.type != MsgType::kMmPriority) continue;
          for (std::size_t i = 0; i < neighbors_.size(); ++i) {
            if (neighbors_[i] == e.from) {
              edge_priority_[i] = static_cast<std::int32_t>(e.msg.a);
            }
          }
        }
        // Minimal incident live edge under the strict order
        // (priority, lower endpoint, higher endpoint).
        std::size_t best = neighbors_.size();
        for (std::size_t i = 0; i < neighbors_.size(); ++i) {
          if (!neighbor_alive_[i]) continue;
          DASM_DCHECK(edge_priority_[i] >= 0);
          if (best == neighbors_.size()) {
            best = i;
            continue;
          }
          const auto key = [&](std::size_t j) {
            const NodeId lo = std::min(self_, neighbors_[j]);
            const NodeId hi = std::max(self_, neighbors_[j]);
            return std::tuple(edge_priority_[j], lo, hi);
          };
          if (key(i) < key(best)) best = i;
        }
        if (best != neighbors_.size()) {
          chosen_ = neighbors_[best];
          net.send(self_, chosen_, Message{MsgType::kMmChoose});
        }
      }
      phase_ = Phase::kResolve;
      break;
    }
    case Phase::kResolve: {
      if (alive_ && chosen_ != kNoNode) {
        bool mutual = false;
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmChoose && e.from == chosen_) {
            mutual = true;
          }
        }
        if (mutual) {
          partner_ = chosen_;
          alive_ = false;
          for (std::size_t i = 0; i < neighbors_.size(); ++i) {
            if (neighbor_alive_[i] && neighbors_[i] != partner_) {
              net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
            }
          }
        }
      }
      phase_ = Phase::kAnnounce;
      break;
    }
  }
}

}  // namespace dasm::mm
