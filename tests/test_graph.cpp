#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "graph/bipartite_graph.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphTest, PathGraph) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(GraphTest, EdgesAreNormalizedAndSorted) {
  Graph g(3, {{2, 0}, {1, 0}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
}

TEST(GraphTest, NeighborsSorted) {
  Graph g(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto& nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphTest, RejectsSelfLoop) {
  EXPECT_THROW(Graph(2, {{1, 1}}), CheckError);
}

TEST(GraphTest, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), CheckError);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(2, {{0, 2}}), CheckError);
  EXPECT_THROW(Graph(2, {{-1, 0}}), CheckError);
}

TEST(GraphTest, QueriesValidateArguments) {
  Graph g(2, {{0, 1}});
  EXPECT_THROW(g.neighbors(5), CheckError);
  EXPECT_FALSE(g.has_edge(-1, 0));
}

TEST(GraphTest, CsrRowsAreTheSortedNeighbourLists) {
  Graph g(4, {{0, 3}, {2, 1}, {0, 1}});
  const std::vector<std::int64_t> offsets = {0, 2, 4, 5, 6};
  const std::vector<NodeId> adjacency = {1, 3, 0, 2, 1, 0};
  EXPECT_EQ(g.offsets(), offsets);
  EXPECT_EQ(g.adjacency(), adjacency);
  // Adopting the same layout gives the same graph.
  const Graph adopted(offsets, adjacency);
  EXPECT_EQ(adopted.edges(), g.edges());
  EXPECT_EQ(adopted.edge_count(), 3);
  EXPECT_EQ(adopted.neighbors(1).data(), adopted.adjacency().data() + 2);
  EXPECT_THROW(Graph({1, 2}, {0, 0}), CheckError);  // must start at 0
  EXPECT_THROW(Graph({0, 2}, {0}), CheckError);     // must end at size
}

TEST(BipartiteGraphTest, IdMapping) {
  // 2 men, 3 women; man 0 ranks women 0 and 2, man 1 ranks woman 1.
  BipartiteGraph bg(2, 3, Graph(5, {{0, 2}, {0, 4}, {1, 3}}));
  EXPECT_EQ(bg.node_count(), 5);
  EXPECT_EQ(bg.man_id(1), 1);
  EXPECT_EQ(bg.woman_id(0), 2);
  EXPECT_EQ(bg.woman_id(2), 4);
  EXPECT_TRUE(bg.is_man(0));
  EXPECT_FALSE(bg.is_man(2));
  EXPECT_TRUE(bg.is_woman(4));
  EXPECT_EQ(bg.man_index(1), 1);
  EXPECT_EQ(bg.woman_index(3), 1);
  EXPECT_TRUE(bg.graph().has_edge(0, 2));   // man 0 – woman 0
  EXPECT_TRUE(bg.graph().has_edge(0, 4));   // man 0 – woman 2
  EXPECT_TRUE(bg.graph().has_edge(1, 3));   // man 1 – woman 1
  EXPECT_EQ(bg.graph().edge_count(), 3);
}

TEST(BipartiteGraphTest, RejectsBadIndices) {
  // Too many nodes, a woman-woman edge, a man-man edge.
  EXPECT_THROW(BipartiteGraph(1, 1, Graph(3, {{0, 2}})), CheckError);
  EXPECT_THROW(BipartiteGraph(1, 2, Graph(3, {{1, 2}})), CheckError);
  EXPECT_THROW(BipartiteGraph(2, 1, Graph(3, {{0, 1}})), CheckError);
  BipartiteGraph bg(1, 1, Graph(2, {{0, 1}}));
  EXPECT_THROW(bg.man_id(1), CheckError);
  EXPECT_THROW(bg.woman_index(0), CheckError);  // id 0 is a man
}

}  // namespace
}  // namespace dasm
