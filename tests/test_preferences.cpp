#include "stable/preferences.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/player.hpp"  // quantile_of_rank
#include "stable/instance.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

// The list under test is man 0's in a one-man instance: he ranks
// `ranked` among `universe` women, and each woman he ranks ranks him back.
Instance one_list(const Ranking& ranked, NodeId universe) {
  std::vector<Ranking> women(static_cast<std::size_t>(universe));
  for (NodeId w : ranked) {
    if (w >= 0 && w < universe) women[static_cast<std::size_t>(w)].push_back(0);
  }
  return Instance({ranked}, women);
}

TEST(PreferenceListTest, RanksAndLookup) {
  const Instance inst = one_list({4, 2, 7}, 10);
  const PreferenceList p = inst.man_pref(0);
  EXPECT_EQ(p.degree(), 3);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.at_rank(0), 4);
  EXPECT_EQ(p.at_rank(2), 7);
  EXPECT_EQ(p.rank_of(2), 1);
  EXPECT_EQ(p.rank_of(9), kNoNode);
  EXPECT_TRUE(p.contains(7));
  EXPECT_FALSE(p.contains(0));
}

TEST(PreferenceListTest, DirectAndSearchedLookupsAgree) {
  // The same ranking through both lookups: over exactly its 8 women the
  // list ranks the whole side and rank_of reads the rank column directly;
  // among 1000 women it binary-searches the sorted row.
  const Ranking ranked = {4, 2, 7, 0, 6, 1, 5, 3};
  const Instance full = one_list(ranked, 8);
  const Instance partial = one_list(ranked, 1000);
  for (NodeId u = -3; u < 1003; ++u) {
    const NodeId want = u >= 0 && u < 8 ? static_cast<NodeId>(
        std::find(ranked.begin(), ranked.end(), u) - ranked.begin())
                                        : kNoNode;
    EXPECT_EQ(full.man_pref(0).rank_of(u), want) << u;
    EXPECT_EQ(partial.man_pref(0).rank_of(u), want) << u;
  }
}

TEST(PreferenceListTest, PrefersIsStrict) {
  const Instance inst = one_list({4, 2, 7}, 100);
  const PreferenceList p = inst.man_pref(0);
  EXPECT_TRUE(p.prefers(4, 2));
  EXPECT_FALSE(p.prefers(2, 4));
  EXPECT_FALSE(p.prefers(2, 2));
  EXPECT_THROW(p.prefers(4, 99), CheckError);
}

TEST(PreferenceListTest, UnmatchedConvention) {
  const Instance inst = one_list({4, 2}, 5);
  const PreferenceList p = inst.man_pref(0);
  EXPECT_TRUE(p.prefers_over_partner(2, kNoNode));
  EXPECT_TRUE(p.prefers_over_partner(4, 2));
  EXPECT_FALSE(p.prefers_over_partner(2, 4));
}

TEST(PreferenceListTest, RejectsDuplicatesAndNegatives) {
  EXPECT_THROW(one_list({1, 1}, 5), CheckError);
  EXPECT_THROW(one_list({0, -2}, 5), CheckError);
  // Whether or not the list could cover the whole side.
  EXPECT_THROW(one_list({1, 1}, 1000), CheckError);
  EXPECT_THROW(one_list({0, -2}, 1000), CheckError);
  EXPECT_THROW(one_list({0, 1, 1}, 2), CheckError);
  // Ids at or beyond the opposite side's size are invalid.
  EXPECT_THROW(one_list({5}, 5), CheckError);
}

TEST(PreferenceListTest, EmptyList) {
  const PreferenceList p;
  EXPECT_EQ(p.degree(), 0);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.rank_of(0), kNoNode);
  EXPECT_THROW(p.at_rank(0), CheckError);
}

TEST(InstanceLayoutTest, ColumnsConcatenateLists) {
  // Men's lists {2, 0}, {}, {1}; each woman ranks the men who rank her.
  const Instance inst({{2, 0}, {}, {1}}, {{0}, {2}, {0}});
  const std::vector<std::int64_t> offsets = {0, 2, 2, 3, 4, 5, 6};
  EXPECT_EQ(inst.offsets(), offsets);
  const std::vector<NodeId> ranked = {2, 0, 1, 0, 2, 0};
  EXPECT_EQ(inst.ranked(), ranked);
  // The graph's rows are the same lists, sorted, as global ids.
  const std::vector<NodeId> adjacency = {3, 5, 4, 0, 2, 0};
  EXPECT_EQ(inst.graph().graph().adjacency(), adjacency);
  EXPECT_TRUE(inst.man_pref(1).empty());
  EXPECT_EQ(inst.man_pref(0).rank_of(2), 0);
  EXPECT_EQ(inst.man_pref(0).rank_of(0), 1);
  EXPECT_EQ(inst.man_pref(2).at_rank(0), 1);
  EXPECT_EQ(inst.woman_pref(1).rank_of(2), 0);
  EXPECT_THROW(inst.man_pref(3), CheckError);
}

TEST(InstanceLayoutTest, ViewsSurviveMoves) {
  Instance a = one_list({3, 1, 4}, 6);
  const PreferenceList before = a.man_pref(0);
  const NodeId* data_before = before.ranked().data();
  Instance b = std::move(a);
  EXPECT_EQ(b.man_pref(0).ranked().data(), data_before);
  EXPECT_EQ(b.man_pref(0).rank_of(4), 2);
  EXPECT_EQ(before.rank_of(4), 2);
}

// ----------------------------------------------------------- quantization

TEST(QuantileTest, SingletonQuantilesWhenKAtLeastDegree) {
  const Instance inst = one_list({5, 6, 7}, 10);
  const PreferenceList p = inst.man_pref(0);
  for (NodeId k : {3, 4, 10}) {
    EXPECT_EQ(p.quantile_of(5, k), 1);
    EXPECT_GT(p.quantile_of(6, k), p.quantile_of(5, k));
    EXPECT_GT(p.quantile_of(7, k), p.quantile_of(6, k));
  }
}

TEST(QuantileTest, SingleQuantileWhenKIsOne) {
  const Instance inst = one_list({5, 6, 7, 8}, 10);
  const PreferenceList p = inst.man_pref(0);
  for (NodeId u : p.ranked()) EXPECT_EQ(p.quantile_of(u, 1), 1);
}

TEST(QuantileTest, BalancedSizes) {
  // 10 partners in 3 quantiles: sizes must differ by at most one and be
  // monotone in rank.
  Ranking partners;
  for (NodeId i = 0; i < 10; ++i) partners.push_back(100 + i);
  const Instance inst = one_list(partners, 200);
  const PreferenceList p = inst.man_pref(0);
  std::vector<int> size(4, 0);
  NodeId prev_q = 0;
  for (NodeId r = 0; r < 10; ++r) {
    const NodeId q = p.quantile_of(p.at_rank(r), 3);
    EXPECT_GE(q, 1);
    EXPECT_LE(q, 3);
    EXPECT_GE(q, prev_q);  // quantile is monotone in rank
    prev_q = q;
    ++size[static_cast<std::size_t>(q)];
  }
  for (int q = 1; q <= 3; ++q) {
    EXPECT_GE(size[static_cast<std::size_t>(q)], 3);
    EXPECT_LE(size[static_cast<std::size_t>(q)], 4);
  }
}

TEST(QuantileTest, MembersPartitionTheList) {
  Ranking partners;
  for (NodeId i = 0; i < 17; ++i) partners.push_back(i);
  const Instance inst = one_list(partners, 17);
  const PreferenceList p = inst.man_pref(0);
  const NodeId k = 5;
  std::size_t total = 0;
  for (NodeId q = 1; q <= k; ++q) {
    for (NodeId u : p.quantile_members(q, k)) {
      EXPECT_EQ(p.quantile_of(u, k), q);
      ++total;
    }
  }
  EXPECT_EQ(total, 17u);
}

TEST(QuantileTest, MembersAreTheContiguousRankSlice) {
  // quantile_members is a direct slice of the ranked array; cross-check it
  // against the definitional filter for several (d, k) shapes, both with
  // k dividing d and not.
  for (NodeId d : {1, 2, 3, 7, 12, 17}) {
    Ranking partners;
    for (NodeId i = 0; i < d; ++i) partners.push_back(d - i - 1);
    const Instance inst = one_list(partners, d);
    const PreferenceList p = inst.man_pref(0);
    for (NodeId k : {1, 2, 3, 5, d, static_cast<NodeId>(d + 3)}) {
      for (NodeId q = 1; q <= k; ++q) {
        Ranking expected;
        for (NodeId r = 0; r < d; ++r) {
          const NodeId u = p.at_rank(r);
          if (p.quantile_of(u, k) == q) expected.push_back(u);
        }
        EXPECT_EQ(p.quantile_members(q, k), expected)
            << "d=" << d << " k=" << k << " q=" << q;
      }
    }
  }
}

TEST(QuantileTest, MatchesFreeFunction) {
  Ranking partners;
  for (NodeId i = 0; i < 23; ++i) partners.push_back(i);
  const Instance inst = one_list(partners, 23);
  const PreferenceList p = inst.man_pref(0);
  for (NodeId k : {1, 2, 5, 23, 40}) {
    for (NodeId r = 0; r < 23; ++r) {
      EXPECT_EQ(p.quantile_of(p.at_rank(r), k),
                core::quantile_of_rank(r, 23, k));
    }
  }
}

TEST(QuantileTest, RejectsBadArguments) {
  const Instance inst = one_list({1, 2}, 5);
  const PreferenceList p = inst.man_pref(0);
  EXPECT_THROW(p.quantile_of(1, 0), CheckError);
  EXPECT_THROW(p.quantile_of(9, 2), CheckError);
  EXPECT_THROW(p.quantile_members(0, 2), CheckError);
  EXPECT_THROW(p.quantile_members(3, 2), CheckError);
}

}  // namespace
}  // namespace dasm
