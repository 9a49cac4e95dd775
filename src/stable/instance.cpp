#include "stable/instance.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace dasm {

namespace {

std::vector<std::int64_t> list_offsets(const std::vector<Ranking>& men,
                                       const std::vector<Ranking>& women) {
  std::vector<std::int64_t> offsets{0};
  for (const auto* side : {&men, &women}) {
    for (const Ranking& r : *side) {
      offsets.push_back(offsets.back() + static_cast<std::int64_t>(r.size()));
    }
  }
  return offsets;
}

std::vector<NodeId> concatenate(const std::vector<Ranking>& men,
                                const std::vector<Ranking>& women) {
  std::vector<NodeId> ranked;
  for (const auto* side : {&men, &women}) {
    for (const Ranking& r : *side) {
      ranked.insert(ranked.end(), r.begin(), r.end());
    }
  }
  return ranked;
}

}  // namespace

Instance::Instance(const std::vector<Ranking>& men,
                   const std::vector<Ranking>& women)
    : Instance(static_cast<NodeId>(men.size()),
               static_cast<NodeId>(women.size()), list_offsets(men, women),
               concatenate(men, women)) {}

Instance::Instance(NodeId n_men, NodeId n_women,
                   std::vector<std::int64_t> offsets,
                   std::vector<NodeId> ranked)
    : ranked_(std::move(ranked)) {
  DASM_CHECK(n_men >= 0 && n_women >= 0);
  DASM_CHECK(n_men <= std::numeric_limits<NodeId>::max() - n_women);
  const NodeId n = n_men + n_women;
  DASM_CHECK(offsets.size() == static_cast<std::size_t>(n) + 1);
  DASM_CHECK(offsets.front() == 0 &&
             offsets.back() == static_cast<std::int64_t>(ranked_.size()) &&
             std::is_sorted(offsets.begin(), offsets.end()));
  // Kept for the instance's lifetime: drop any slack the caller grew.
  offsets.shrink_to_fit();
  ranked_.shrink_to_fit();
  auto role = [&](NodeId v) { return v < n_men ? "man " : "woman "; };
  auto index = [&](NodeId v) { return v < n_men ? v : v - n_men; };

  // The neighbour column is the transpose of the lists: v's row holds the
  // players who rank v. Walking the players in id order appends to every
  // row in ascending order, so the rows come out sorted, and a list that
  // names a partner twice shows up as the same id twice in a row. A row
  // must end up exactly as long as its owner's list; since the rows'
  // capacities add up to the number of entries written, refusing every
  // overflow proves that.
  std::vector<NodeId> nbr(ranked_.size());
  std::vector<std::int64_t> fill(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId universe = v < n_men ? n_women : n_men;
    const NodeId base = v < n_men ? n_men : 0;
    for (std::int64_t i = offsets[static_cast<std::size_t>(v)];
         i < offsets[static_cast<std::size_t>(v) + 1]; ++i) {
      const NodeId u = ranked_[static_cast<std::size_t>(i)];
      DASM_CHECK_MSG(u >= 0 && u < universe,
                     role(v) << index(v) << " ranks out-of-range partner "
                             << u);
      std::int64_t& at = fill[static_cast<std::size_t>(base + u)];
      DASM_CHECK_MSG(at == offsets[static_cast<std::size_t>(base + u)] ||
                         nbr[static_cast<std::size_t>(at - 1)] != v,
                     role(v) << index(v) << " ranks partner " << u
                             << " twice");
      DASM_CHECK_MSG(at < offsets[static_cast<std::size_t>(base + u) + 1],
                     "asymmetric preferences: " << role(base + u) << u
                                                << " is ranked by more "
                                                   "players than it ranks");
      nbr[static_cast<std::size_t>(at++)] = v;
    }
  }

  // The rank column, row by row: scatter the row's positions by partner,
  // then walk the list. Every listed partner must sit in the row; with
  // equal lengths and distinct entries the list and the row are then the
  // same set, which is symmetry: u ranks v iff v ranks u.
  rank_.resize(ranked_.size());
  std::vector<NodeId> slot(static_cast<std::size_t>(std::max(n_men, n_women)));
  for (NodeId v = 0; v < n; ++v) {
    const std::int64_t lo = offsets[static_cast<std::size_t>(v)];
    const auto degree =
        static_cast<NodeId>(offsets[static_cast<std::size_t>(v) + 1] - lo);
    const NodeId base = v < n_men ? n_men : 0;
    const NodeId* row = nbr.data() + lo;
    for (NodeId i = 0; i < degree; ++i) {
      slot[static_cast<std::size_t>(row[i] - base)] = i;
    }
    for (NodeId r = 0; r < degree; ++r) {
      const NodeId u = ranked_[static_cast<std::size_t>(lo + r)];
      const NodeId i = slot[static_cast<std::size_t>(u)];
      DASM_CHECK_MSG(i < degree && row[i] == base + u,
                     "asymmetric preferences: " << role(v) << index(v)
                                                << " ranks " << u
                                                << " but not back");
      rank_[static_cast<std::size_t>(lo + i)] = r;
    }
  }
  graph_ = std::make_unique<BipartiteGraph>(
      n_men, n_women, Graph(std::move(offsets), std::move(nbr)));
  n_men_ = n_men;
  n_women_ = n_women;
  offsets_ = graph_->graph().offsets().data();
  neighbors_ = graph_->graph().adjacency().data();
}

bool Instance::is_complete() const {
  // Lists are distinct and in range, so only full lists add up to this.
  return edge_count() == static_cast<std::int64_t>(n_men()) * n_women();
}

double Instance::regularity_alpha() const {
  NodeId lo = std::numeric_limits<NodeId>::max();
  NodeId hi = 0;
  for (NodeId m = 0; m < n_men(); ++m) {
    const NodeId deg = man_pref(m).degree();
    if (deg == 0) continue;
    lo = std::min(lo, deg);
    hi = std::max(hi, deg);
  }
  return hi == 0 ? 1.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

}  // namespace dasm
