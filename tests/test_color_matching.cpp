// Color-class deterministic maximal matching (Panconesi–Rizzi style) run
// standalone by mm::run_maximal_matching (Backend::kColorClass), and the
// Cole–Vishkin iteration bound.
#include "mm/color_class_node.hpp"

#include <gtest/gtest.h>

#include "mm/runner.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::random_bipartite;
using testing::random_graph;
using testing::star_graph;

mm::RunResult run_color_class(const Graph& g) {
  mm::RunConfig config;
  config.backend = mm::Backend::kColorClass;
  return mm::run_maximal_matching(g, {}, config);
}

TEST(ColeVishkin, IterationBoundIsTinyAndMonotone) {
  EXPECT_GE(mm::cole_vishkin_iterations(2), 0);
  EXPECT_LE(mm::cole_vishkin_iterations(1 << 20), 6);
  EXPECT_LE(mm::cole_vishkin_iterations(7),
            mm::cole_vishkin_iterations(1 << 20));
  EXPECT_THROW(mm::cole_vishkin_iterations(0), CheckError);
}

TEST(ColorMatching, EmptyAndEdgelessGraphs) {
  EXPECT_TRUE(run_color_class(Graph(0)).maximal);
  const auto r = run_color_class(Graph(4, {}));
  EXPECT_TRUE(r.maximal);
  EXPECT_EQ(r.matching.size(), 0);
  EXPECT_EQ(r.iterations_executed, 0);
}

TEST(ColorMatching, MaximalOnFixedTopologies) {
  for (const Graph& g : {path_graph(2), path_graph(9), cycle_graph(10),
                         cycle_graph(12), star_graph(7), complete_graph(8)}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal) << "n=" << g.node_count();
  }
}

TEST(ColorMatching, DeterministicAndReproducible) {
  const Graph g = random_graph(60, 0.1, 4);
  const auto a = run_color_class(g);
  const auto b = run_color_class(g);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.net.executed_rounds, b.net.executed_rounds);
  EXPECT_EQ(a.net.messages, b.net.messages);
}

class ColorMatchingSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColorMatchingSeeds, MaximalOnRandomGraphs) {
  for (const Graph& g : {random_graph(70, 0.08, GetParam()),
                         random_graph(40, 0.1, GetParam())}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal) << "n=" << g.node_count();
  }
}

TEST_P(ColorMatchingSeeds, MaximalOnBipartiteGraphs) {
  for (const auto& [g, is_left] : {random_bipartite(35, 35, 0.12, GetParam()),
                                   random_bipartite(25, 25, 0.1, GetParam())}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal) << "n=" << g.node_count();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorMatchingSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ColorMatching, RoundsIndependentOfNForBoundedDegree) {
  // The schedule is O(Delta^2 (log* n + 1)): doubling n on a
  // bounded-degree family must barely move the executed rounds.
  std::vector<std::int64_t> rounds;
  for (const NodeId n : {64, 128, 256, 512}) {
    // Cycles have Delta = 2 everywhere.
    const auto r = run_color_class(cycle_graph(n));
    EXPECT_TRUE(r.maximal);
    rounds.push_back(r.net.executed_rounds);
  }
  EXPECT_LE(rounds.back(), rounds.front() + 16);
}

TEST(ColorMatching, UsesOnlyExpectedMessageTypes) {
  const Graph g = random_graph(40, 0.1, 11);
  const auto r = run_color_class(g);
  EXPECT_GT(r.net.count_of(MsgType::kPort), 0);
  EXPECT_GT(r.net.count_of(MsgType::kColor), 0);
  EXPECT_EQ(r.net.count_of(MsgType::kMmPick), 0);
  EXPECT_EQ(r.net.count_of(MsgType::kGsPropose), 0);
}

}  // namespace
}  // namespace dasm
