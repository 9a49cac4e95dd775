// Simple immutable undirected graph with sorted adjacency lists.
//
// Used both as the communication graph handed to the CONGEST simulator and
// as the input to the maximal-matching protocols (which operate on general
// graphs, per Israeli–Itai [8]).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "congest/types.hpp"

namespace dasm {

/// Undirected edge as an ordered pair (u < v after normalization).
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  /// Empty graph on n vertices.
  explicit Graph(NodeId n = 0);

  /// Graph on n vertices with the given undirected edges. Duplicate edges
  /// and self-loops are rejected.
  Graph(NodeId n, const std::vector<Edge>& edges);

  NodeId node_count() const { return static_cast<NodeId>(adj_.size()); }
  std::int64_t edge_count() const { return edge_count_; }

  const std::vector<NodeId>& neighbors(NodeId v) const;
  NodeId degree(NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges, normalized (u < v) and sorted.
  std::vector<Edge> edges() const;

  /// Maximum vertex degree (0 for the empty graph).
  NodeId max_degree() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::int64_t edge_count_ = 0;
};

}  // namespace dasm
