// Preference lists and their quantization (§2.1, §3.1).
//
// A PreferenceList is a strict ranking over a subset of the opposite side,
// identified by 0-based opposite-side indices. Ranks are 0-based
// internally; the paper's 1-based rank P^v(u) is rank_of(u) + 1.
//
// A PreferenceList is a by-value view, built on demand by Instance, into
// the instance's three columns for one player (stable/instance.hpp):
//
//   - `ranked`: the list in preference order (opposite-side indices);
//   - `sorted`: the player's row of the communication graph — the same
//     partners as ascending global node ids;
//   - `rank`:   aligned with `sorted`, the rank of each of those partners.
//
// rank_of is one array read when the list ranks the whole opposite side
// (its sorted row is then the identity), and a binary search over the
// 4-byte sorted row otherwise. A view stays valid as long as its Instance
// lives, across moves of the Instance.
//
// Quantization (§3.1): for k quantiles, partner u of a player with degree
// d falls in quantile q(u) = floor(rank_of(u) * k / d) + 1 in {1, ..., k} —
// k consecutive blocks of (almost) equal size d/k, quantile 1 being the
// most preferred. When k >= d every quantile holds at most one partner and
// ProposalRound degenerates to classical Gale–Shapley (§3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/types.hpp"
#include "util/check.hpp"

namespace dasm {

/// A raw ranking: acceptable partners, most preferred first. The
/// construction currency of instances.
using Ranking = std::vector<NodeId>;

/// Lightweight view over one list's slice of the flat `ranked` buffer.
/// Comparable against other views and against std::vector<NodeId>, which
/// keeps call sites that used to compare owned vectors working unchanged.
class RankedView {
 public:
  RankedView() = default;
  RankedView(const NodeId* data, std::size_t size) : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  const NodeId* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](std::size_t i) const { return data_[i]; }

  friend bool operator==(const RankedView& a, const RankedView& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const RankedView& a, const std::vector<NodeId>& b) {
    return a == RankedView(b.data(), b.size());
  }

 private:
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

class PreferenceList {
 public:
  /// An empty view: degree 0, every partner unranked.
  PreferenceList() = default;

  NodeId degree() const { return degree_; }
  bool empty() const { return degree_ == 0; }

  /// Partner at 0-based rank r (0 = most preferred).
  NodeId at_rank(NodeId r) const {
    DASM_CHECK(r >= 0 && r < degree_);
    return ranked_[r];
  }

  /// 0-based rank of `partner`, or kNoNode if unranked. O(1) for a list
  /// of the whole opposite side, O(log degree) otherwise.
  NodeId rank_of(NodeId partner) const {
    if (partner < 0 || partner >= universe_) return kNoNode;
    if (degree_ == universe_) return rank_[partner];
    if (degree_ == 0) return kNoNode;
    // Branch-light lower_bound over the sorted row of global ids.
    const NodeId key = base_ + partner;
    const NodeId* at = sorted_;
    NodeId len = degree_;
    while (len > 1) {
      const NodeId half = len / 2;
      at += (at[half - 1] < key) ? half : 0;
      len -= half;
    }
    return *at == key ? rank_[at - sorted_] : kNoNode;
  }

  bool contains(NodeId partner) const { return rank_of(partner) != kNoNode; }

  /// True iff `a` is strictly preferred to `b`; both must be ranked.
  bool prefers(NodeId a, NodeId b) const {
    const NodeId ra = rank_of(a);
    const NodeId rb = rank_of(b);
    DASM_CHECK_MSG(ra != kNoNode, "partner " << a << " is not ranked");
    DASM_CHECK_MSG(rb != kNoNode, "partner " << b << " is not ranked");
    return ra < rb;
  }

  /// True iff `a` is strictly preferred to the current partner `b`, where
  /// b == kNoNode means unmatched and every acceptable partner is
  /// preferred to being unmatched (§2.1 convention).
  bool prefers_over_partner(NodeId a, NodeId b) const {
    const NodeId ra = rank_of(a);
    DASM_CHECK_MSG(ra != kNoNode, "partner " << a << " is not ranked");
    if (b == kNoNode) return true;
    const NodeId rb = rank_of(b);
    DASM_CHECK_MSG(rb != kNoNode, "partner " << b << " is not ranked");
    return ra < rb;
  }

  /// 1-based quantile of `partner` among k quantiles (see file comment).
  NodeId quantile_of(NodeId partner, NodeId k) const {
    DASM_CHECK(k >= 1);
    const NodeId r = rank_of(partner);
    DASM_CHECK_MSG(r != kNoNode, "partner " << partner << " is not ranked");
    const auto q = static_cast<NodeId>(
        (static_cast<std::int64_t>(r) * k) / static_cast<std::int64_t>(degree_) + 1);
    DASM_DCHECK(q >= 1 && q <= k);
    return q;
  }

  /// Partners in 1-based quantile q of k. Quantile members occupy one
  /// contiguous rank block [ceil((q-1)d/k), ceil(qd/k)), so this is a
  /// direct slice copy — O(|members|), no per-member rank lookups.
  std::vector<NodeId> quantile_members(NodeId q, NodeId k) const;

  RankedView ranked() const {
    return RankedView(ranked_, static_cast<std::size_t>(degree_));
  }

 private:
  friend class Instance;

  /// `universe` is the opposite side's size and `base` the global node id
  /// of its index 0.
  PreferenceList(const NodeId* ranked, const NodeId* sorted,
                 const NodeId* rank, NodeId degree, NodeId universe,
                 NodeId base)
      : ranked_(ranked),
        sorted_(sorted),
        rank_(rank),
        degree_(degree),
        universe_(universe),
        base_(base) {}

  const NodeId* ranked_ = nullptr;  // preference order
  const NodeId* sorted_ = nullptr;  // ascending global ids
  const NodeId* rank_ = nullptr;    // rank_[i]: rank of sorted_[i]
  NodeId degree_ = 0;
  NodeId universe_ = 0;
  NodeId base_ = 0;
};

}  // namespace dasm
