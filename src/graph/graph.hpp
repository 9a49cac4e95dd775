// Immutable undirected graph in CSR form: one offsets array and one
// neighbour column, every row sorted ascending.
//
// Used both as the communication graph handed to the CONGEST simulator and
// as the input to the maximal-matching protocols (which operate on general
// graphs, per Israeli–Itai [8]). An Instance builds its graph directly in
// this layout and aligns its preference columns with the neighbour column
// (stable/instance.hpp), so the graph costs 8 B per node plus 8 B per
// edge, and no heap block per node.
//
// Every construction and assignment stamps the graph with a fresh serial,
// which names its contents for as long as it keeps them: a Network
// re-bound onto a graph rebuilds its port table only when the serial
// differs from the one it was built for (congest/network.hpp). An address
// cannot serve, because a freed graph's successor can reuse it.
#pragma once

#include <cstdint>
#include <span>
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

  /// Adopts a finished CSR layout: v's neighbours are
  /// adjacency[offsets[v], offsets[v + 1]). The caller guarantees what the
  /// edge-list constructor checks: every row strictly ascending and in
  /// range, no self-loops, and u in v's row iff v in u's row.
  Graph(std::vector<std::int64_t> offsets, std::vector<NodeId> adjacency);

  // Copies and moves stamp a fresh serial on the target, and a move on
  // the source too, whose contents it takes.
  Graph(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(const Graph& other);
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  /// Distinct for every construction and assignment in the process.
  std::uint64_t serial() const { return serial_; }

  NodeId node_count() const {
    return static_cast<NodeId>(offsets_.size() - 1);
  }
  std::int64_t edge_count() const {
    return static_cast<std::int64_t>(adj_.size() / 2);
  }

  std::span<const NodeId> neighbors(NodeId v) const;
  NodeId degree(NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const;

  /// Row starts, node_count() + 1 entries: v's row of adjacency() is
  /// [offsets()[v], offsets()[v + 1]).
  const std::vector<std::int64_t>& offsets() const { return offsets_; }
  /// Every row, concatenated in node order.
  const std::vector<NodeId>& adjacency() const { return adj_; }

  /// All edges, normalized (u < v) and sorted.
  std::vector<Edge> edges() const;

  /// Maximum vertex degree (0 for the empty graph).
  NodeId max_degree() const;

 private:
  static std::uint64_t next_serial();

  std::vector<std::int64_t> offsets_;
  std::vector<NodeId> adj_;
  std::uint64_t serial_ = next_serial();
};

}  // namespace dasm
