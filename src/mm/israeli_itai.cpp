#include "mm/israeli_itai.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dasm::mm {

void IsraeliItaiNode::reset(NodeId self, bool /*is_left*/,
                            std::span<const NodeId> neighbors) {
  self_ = self;
  neighbors_.assign(neighbors.begin(), neighbors.end());
  const std::size_t degree = neighbors_.size();
  live_words_.assign((degree + 63) / 64, ~std::uint64_t{0});
  if (degree % 64 != 0) live_words_.back() >>= 64 - degree % 64;
  live_count_ = degree;
  port_index_.clear();
  for (std::size_t p = 0; p < degree; ++p) {
    port_index_.emplace_back(neighbors_[p], static_cast<std::uint32_t>(p));
  }
  // Neighbour lists usually arrive in id order, and then so does the index.
  if (!std::is_sorted(port_index_.begin(), port_index_.end())) {
    std::sort(port_index_.begin(), port_index_.end());
  }
  alive_ = degree > 0;
  partner_ = kNoNode;
  phase_ = Phase::kPick;
  picked_out_ = kNoNode;
  kept_in_ = kNoNode;
  out_was_kept_ = false;
  chosen_ = kNoNode;
}

void IsraeliItaiNode::mark_dead(NodeId v) {
  // Every port to v (a raw duplicating fault plan can list v twice).
  for (auto it = std::lower_bound(port_index_.begin(), port_index_.end(),
                                  std::pair<NodeId, std::uint32_t>{v, 0});
       it != port_index_.end() && it->first == v; ++it) {
    const std::uint32_t p = it->second;
    std::uint64_t& word = live_words_[p / 64];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    if ((word & bit) != 0) {
      word &= ~bit;
      --live_count_;
    }
  }
}

NodeId IsraeliItaiNode::random_live_neighbor() {
  DASM_DCHECK(live_count_ > 0);
  // The k-th live port in port order: skip whole words by popcount, then
  // clear the k lowest set bits of the word that holds it.
  std::uint64_t k = rng_.below(live_count_);
  for (std::size_t i = 0; i < live_words_.size(); ++i) {
    std::uint64_t word = live_words_[i];
    const auto count = static_cast<std::uint64_t>(std::popcount(word));
    if (k >= count) {
      k -= count;
      continue;
    }
    for (; k > 0; --k) word &= word - 1;
    return neighbors_[i * 64 +
                      static_cast<std::size_t>(std::countr_zero(word))];
  }
  DASM_CHECK_MSG(false, "no live neighbour");
  return kNoNode;
}

void IsraeliItaiNode::process_withdrawals(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void IsraeliItaiNode::on_round(InboxView inbox,
                               Network& net) {
  // Withdrawals are announced in the resolve step and consumed at the top
  // of the next pick step; processing them in every phase is harmless and
  // keeps the node robust to being embedded in larger protocols.
  process_withdrawals(inbox);

  switch (phase_) {
    case Phase::kPick: {
      picked_out_ = kNoNode;
      kept_in_ = kNoNode;
      out_was_kept_ = false;
      chosen_ = kNoNode;
      if (alive_ && !has_live_neighbor()) alive_ = false;  // isolated: drop
      if (alive_) {
        picked_out_ = random_live_neighbor();
        net.send(self_, picked_out_, Message{MsgType::kMmPick});
      }
      phase_ = Phase::kKeep;
      break;
    }
    case Phase::kKeep: {
      if (alive_) {
        // Keep the k-th incoming pick in inbox order, k uniform.
        std::uint64_t picks = 0;
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmPick) ++picks;
        }
        if (picks > 0) {
          std::uint64_t k = rng_.below(picks);
          for (const Envelope& e : inbox) {
            if (e.msg.type != MsgType::kMmPick) continue;
            if (k-- == 0) {
              kept_in_ = e.from;
              break;
            }
          }
          net.send(self_, kept_in_, Message{MsgType::kMmKeep});
        }
      }
      phase_ = Phase::kChoose;
      break;
    }
    case Phase::kChoose: {
      if (alive_) {
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmKeep && e.from == picked_out_) {
            out_was_kept_ = true;
          }
        }
        // Incident edges of the sparse graph G' at this node (at most 2).
        NodeId incident[2] = {kNoNode, kNoNode};
        std::uint64_t n_incident = 0;
        if (kept_in_ != kNoNode) incident[n_incident++] = kept_in_;
        if (out_was_kept_ && picked_out_ != kept_in_) {
          incident[n_incident++] = picked_out_;
        }
        if (n_incident > 0) {
          chosen_ = incident[rng_.below(n_incident)];
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
            if (port_live(i) && neighbors_[i] != partner_) {
              net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
            }
          }
        }
      }
      phase_ = Phase::kPick;
      break;
    }
  }
}

}  // namespace dasm::mm
