#include "graph/bipartite_graph.hpp"

#include <utility>

#include "util/check.hpp"

namespace dasm {

BipartiteGraph::BipartiteGraph(NodeId n_men, NodeId n_women, Graph graph)
    : n_men_(n_men), n_women_(n_women), graph_(std::move(graph)) {
  DASM_CHECK(n_men >= 0 && n_women >= 0);
  DASM_CHECK(graph_.node_count() == n_men + n_women);
  // Rows are sorted, so each row's ends bound it: a man's row holds only
  // women, a woman's only men.
  for (NodeId v = 0; v < graph_.node_count(); ++v) {
    const auto nb = graph_.neighbors(v);
    if (nb.empty()) continue;
    DASM_CHECK_MSG(is_man(v) ? nb.front() >= n_men : nb.back() < n_men,
                   "edge (" << v << "," << (is_man(v) ? nb.front() : nb.back())
                            << ") does not join a man and a woman");
  }
}

NodeId BipartiteGraph::man_id(NodeId man_index) const {
  DASM_CHECK(man_index >= 0 && man_index < n_men_);
  return man_index;
}

NodeId BipartiteGraph::woman_id(NodeId woman_index) const {
  DASM_CHECK(woman_index >= 0 && woman_index < n_women_);
  return n_men_ + woman_index;
}

bool BipartiteGraph::is_man(NodeId id) const { return id >= 0 && id < n_men_; }

bool BipartiteGraph::is_woman(NodeId id) const {
  return id >= n_men_ && id < n_men_ + n_women_;
}

NodeId BipartiteGraph::man_index(NodeId id) const {
  DASM_CHECK(is_man(id));
  return id;
}

NodeId BipartiteGraph::woman_index(NodeId id) const {
  DASM_CHECK(is_woman(id));
  return id - n_men_;
}

}  // namespace dasm
