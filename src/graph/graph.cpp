#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.hpp"

namespace dasm {

Graph::Graph(NodeId n) {
  DASM_CHECK(n >= 0);
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
}

Graph::Graph(NodeId n, const std::vector<Edge>& edges) : Graph(n) {
  // Counting sort into rows: degrees, then row starts, then both
  // directions of every edge.
  for (const Edge& e : edges) {
    DASM_CHECK_MSG(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                   "edge endpoint out of range: (" << e.u << "," << e.v << ")");
    DASM_CHECK_MSG(e.u != e.v, "self-loop at " << e.u);
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 1; v < offsets_.size(); ++v) {
    offsets_[v] += offsets_[v - 1];
  }
  adj_.resize(2 * edges.size());
  std::vector<std::int64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    adj_[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.u)]++)] = e.v;
    adj_[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.v)]++)] = e.u;
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto first = adj_.begin() + offsets_[static_cast<std::size_t>(v)];
    const auto last = adj_.begin() + offsets_[static_cast<std::size_t>(v) + 1];
    std::sort(first, last);
    DASM_CHECK_MSG(std::adjacent_find(first, last) == last,
                   "duplicate edge incident to node " << v);
  }
}

Graph::Graph(std::vector<std::int64_t> offsets, std::vector<NodeId> adjacency)
    : offsets_(std::move(offsets)), adj_(std::move(adjacency)) {
  DASM_CHECK(!offsets_.empty() && offsets_.front() == 0);
  DASM_CHECK(offsets_.back() == static_cast<std::int64_t>(adj_.size()));
  DASM_CHECK(adj_.size() % 2 == 0);
}

Graph::Graph(const Graph& other)
    : offsets_(other.offsets_), adj_(other.adj_) {}

Graph::Graph(Graph&& other) noexcept
    : offsets_(std::move(other.offsets_)), adj_(std::move(other.adj_)) {
  other.serial_ = next_serial();
}

Graph& Graph::operator=(const Graph& other) {
  offsets_ = other.offsets_;
  adj_ = other.adj_;
  serial_ = next_serial();
  return *this;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  offsets_ = std::move(other.offsets_);
  adj_ = std::move(other.adj_);
  serial_ = next_serial();
  other.serial_ = next_serial();
  return *this;
}

std::uint64_t Graph::next_serial() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  DASM_CHECK(v >= 0 && v < node_count());
  const auto lo = offsets_[static_cast<std::size_t>(v)];
  const auto hi = offsets_[static_cast<std::size_t>(v) + 1];
  return {adj_.data() + lo, static_cast<std::size_t>(hi - lo)};
}

NodeId Graph::degree(NodeId v) const {
  return static_cast<NodeId>(neighbors(v).size());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edge_count()));
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  return out;
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace dasm
