// Bipartite communication graph between men and women (§2.1).
//
// Global node ids place the men first: man i has id i, woman j has id
// n_men + j. This is the id space used by the CONGEST simulator, the
// matching protocols and the ASM players.
#pragma once

#include "graph/graph.hpp"

namespace dasm {

class BipartiteGraph {
 public:
  /// Wraps `graph`, whose first n_men nodes are the men and the other
  /// n_women the women; every edge must join a man and a woman.
  BipartiteGraph(NodeId n_men, NodeId n_women, Graph graph);

  NodeId n_men() const { return n_men_; }
  NodeId n_women() const { return n_women_; }
  NodeId node_count() const { return n_men_ + n_women_; }

  NodeId man_id(NodeId man_index) const;
  NodeId woman_id(NodeId woman_index) const;
  bool is_man(NodeId id) const;
  bool is_woman(NodeId id) const;
  NodeId man_index(NodeId id) const;
  NodeId woman_index(NodeId id) const;

  const Graph& graph() const { return graph_; }

 private:
  NodeId n_men_;
  NodeId n_women_;
  Graph graph_;
};

}  // namespace dasm
