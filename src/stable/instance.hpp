// A stable-marriage instance: symmetric preference lists for men and
// women plus the communication graph they induce (§2.1).
//
// The instance is four arrays over all n_men + n_women players, men
// first, built once:
//
//   - `offsets`: player v's entries are [offsets[v], offsets[v + 1]);
//   - the neighbour column: v's row of the communication graph, as
//     ascending global ids — also v's partners sorted by id;
//   - `ranked`: v's list in preference order, as opposite-side indices;
//   - `rank`: aligned with the neighbour column, v's rank of each
//     neighbour.
//
// The Graph owns the first two (graph().graph()), so a list costs 12 B
// per entry and the instance 24 B per edge plus 8 B per player.
// man_pref/woman_pref build a PreferenceList view over a player's slices
// on demand. Views stay valid across moves of the instance, which is
// move-only: a copy would leave them pointing into its source.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "stable/preferences.hpp"

namespace dasm {

class Instance {
 public:
  /// The lists of all players in one CSR, men first: player v's list is
  /// ranked[offsets[v], offsets[v + 1]), most preferred first, holding
  /// opposite-side indices. Validates the ids (non-negative, in range,
  /// distinct per list) and symmetry: w ranks m iff m ranks w.
  Instance(NodeId n_men, NodeId n_women, std::vector<std::int64_t> offsets,
           std::vector<NodeId> ranked);

  /// The same from one Ranking per player.
  Instance(const std::vector<Ranking>& men, const std::vector<Ranking>& women);

  NodeId n_men() const { return n_men_; }
  NodeId n_women() const { return n_women_; }

  PreferenceList man_pref(NodeId m) const {
    DASM_CHECK(m >= 0 && m < n_men());
    return list(m, n_women(), n_men());
  }
  PreferenceList woman_pref(NodeId w) const {
    DASM_CHECK(w >= 0 && w < n_women());
    return list(n_men() + w, n_men(), 0);
  }

  /// Communication graph; man i has node id i, woman j id n_men + j.
  const BipartiteGraph& graph() const { return *graph_; }

  /// Row starts of every per-player column (the graph's offsets).
  const std::vector<std::int64_t>& offsets() const {
    return graph_->graph().offsets();
  }
  /// Every list in preference order, men then women; the svc digest
  /// streams it row by row.
  const std::vector<NodeId>& ranked() const { return ranked_; }

  std::int64_t edge_count() const { return graph_->graph().edge_count(); }

  /// True iff every player ranks every member of the opposite side.
  bool is_complete() const;

  /// Regularity ratio alpha = max_m deg(m) / min_m deg(m) over men with
  /// nonzero degree (§5.2); 1.0 when all degrees are equal or no man has
  /// an acceptable partner.
  double regularity_alpha() const;

 private:
  /// Player v's view; `universe` is the opposite side's size and `base`
  /// the global id of its index 0.
  PreferenceList list(NodeId v, NodeId universe, NodeId base) const {
    const std::int64_t lo = offsets_[v];
    return PreferenceList(ranked_.data() + lo, neighbors_ + lo,
                          rank_.data() + lo,
                          static_cast<NodeId>(offsets_[v + 1] - lo), universe,
                          base);
  }

  // Heap-held so that its address, which Networks borrow, survives moves.
  std::unique_ptr<BipartiteGraph> graph_;
  std::vector<NodeId> ranked_;
  std::vector<NodeId> rank_;
  // The graph's sizes and columns, cached for building views (a view is
  // built per rank lookup in the certifier's inner loops).
  NodeId n_men_ = 0;
  NodeId n_women_ = 0;
  const std::int64_t* offsets_ = nullptr;
  const NodeId* neighbors_ = nullptr;
};

}  // namespace dasm
