// The lockstep ColorClassNode: its degree bound, and its use as a
// degree-parameterized deterministic Step-3 backend inside ASM. The
// protocol run standalone by the runner is tested in test_color_matching.
#include "mm/color_class_node.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

TEST(ColorClassNode, LooseDegreeBoundStillWorks) {
  // A 7-node path beside a 5-leaf star: the runner's degree bound is the
  // star's 5, so the path runs the class schedule of a degree-5 graph.
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < 7; ++v) edges.push_back({v, v + 1});
  for (NodeId leaf = 8; leaf < 13; ++leaf) edges.push_back({7, leaf});
  const Graph g(13, edges);
  mm::RunConfig config;
  config.backend = mm::Backend::kColorClass;
  const auto r = mm::run_maximal_matching(g, {}, config);
  EXPECT_TRUE(r.matching.is_valid(g));
  EXPECT_TRUE(r.maximal);
}

TEST(ColorClassNode, RejectsDegreeAboveBound) {
  EXPECT_THROW({ mm::ColorClassNode unbounded(0, 16); }, CheckError);
  mm::ColorClassNode node(2, 16);
  const std::vector<NodeId> three = {1, 2, 3};
  EXPECT_THROW(node.reset(0, false, three), CheckError);
}

TEST(G0DegreeBound, FollowsQuantileSizes) {
  const Instance inst = gen::regular_bipartite(24, 6, 3);
  EXPECT_EQ(core::g0_degree_bound(inst, 2), 3);   // ceil(6/2)
  EXPECT_EQ(core::g0_degree_bound(inst, 6), 1);
  EXPECT_EQ(core::g0_degree_bound(inst, 100), 1);
  EXPECT_THROW(core::g0_degree_bound(inst, 0), CheckError);
}

TEST(ColorClassNode, BacksAsmForBoundedPreferences) {
  // Deterministic ASM whose Step-3 subroutine has a worst-case round
  // bound of O(Delta^2 log* n) — no HKP black box needed in the
  // bounded-degree regime. G0's degree is usually below the bound the
  // engine sizes the nodes by, so this also runs a loose degree bound.
  const Instance inst = gen::regular_bipartite(48, 6, 7);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.k = 2;  // quantile size 3 => G0 degree bound 3
  params.mm_backend = mm::Backend::kColorClass;

  const auto r = core::run_asm(inst, params);
  validate_matching(inst, r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
            0.5 * static_cast<double>(inst.edge_count()));
  // The schedule's class pass uses the nodes' id bound, the node count.
  EXPECT_EQ(r.schedule.mm_rounds_per_iteration,
            mm::color_class_rounds_per_iteration(inst.graph().node_count()));

  // Deterministic: identical on a rerun.
  const auto r2 = core::run_asm(inst, params);
  EXPECT_EQ(r.matching, r2.matching);
  EXPECT_EQ(r.net.messages, r2.net.messages);
}

}  // namespace
}  // namespace dasm
