// Certifier equivalence suite: the flat-arena rank lookups and the
// prefix-pruned blocking-pair scans must agree — value for value, witness
// for witness — with the map-based reference implementation in
// stable/ref_certify.hpp (the pre-arena representation kept as an
// executable specification).
#include "stable/blocking.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/instance.hpp"
#include "stable/metrics.hpp"
#include "stable/ref_certify.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

// The instance families the suite sweeps: complete lists take the dense
// inverse rows, sparse Erdős–Rényi lists the sorted-pairs fallback, and
// the unbalanced shape exercises differing universes per side.
std::vector<Instance> certify_instances(std::uint64_t seed) {
  std::vector<Instance> out;
  out.push_back(gen::complete_uniform(28, seed));
  out.push_back(gen::incomplete_uniform(33, 41, 0.15, seed));
  out.push_back(gen::incomplete_uniform(12, 60, 0.4, seed + 100));
  return out;
}

// A deterministic partial matching: walk the men, flip a coin per man,
// and pair him with a random acceptable woman if she is still free.
Matching random_partial_matching(const Instance& inst, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto& bg = inst.graph();
  Matching m(bg.node_count());
  for (NodeId man = 0; man < inst.n_men(); ++man) {
    const PreferenceList& pref = inst.man_pref(man);
    if (pref.empty() || (rng() & 1) == 0) continue;
    const auto r = static_cast<NodeId>(
        rng() % static_cast<std::uint64_t>(pref.degree()));
    const NodeId w = pref.at_rank(r);
    if (m.is_matched(bg.woman_id(w))) continue;
    m.add(bg.man_id(man), bg.woman_id(w));
  }
  return m;
}

// empty / Gale–Shapley-stable / random-partial — many, zero, and few
// blocking pairs respectively.
std::vector<Matching> certify_matchings(const Instance& inst,
                                        std::uint64_t seed) {
  std::vector<Matching> out;
  out.emplace_back(inst.graph().node_count());
  out.push_back(gale_shapley(inst).matching);
  out.push_back(random_partial_matching(inst, seed * 977 + 13));
  return out;
}

void expect_metrics_eq(const MatchingMetrics& a, const MatchingMetrics& b,
                       const std::string& what) {
  EXPECT_EQ(a.matched_pairs, b.matched_pairs) << what;
  EXPECT_EQ(a.unmatched_men, b.unmatched_men) << what;
  EXPECT_EQ(a.unmatched_women, b.unmatched_women) << what;
  EXPECT_EQ(a.men_rank_sum, b.men_rank_sum) << what;
  EXPECT_EQ(a.women_rank_sum, b.women_rank_sum) << what;
  EXPECT_EQ(a.egalitarian_cost, b.egalitarian_cost) << what;
  EXPECT_EQ(a.sex_equality_cost, b.sex_equality_cost) << what;
  EXPECT_EQ(a.men_regret, b.men_regret) << what;
  EXPECT_EQ(a.women_regret, b.women_regret) << what;
}

// ---- Flat arenas vs the map-based lists --------------------------------

TEST(ArenaVsMap, RankLookupsMatchOnRandomInstances) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const Instance& inst : certify_instances(seed)) {
      const ref::RefInstance ri(inst);
      const auto check_side = [](NodeId n, NodeId universe, auto&& pref_of,
                                 const std::vector<ref::RefPreferenceList>&
                                     refs) {
        for (NodeId v = 0; v < n; ++v) {
          const PreferenceList& p = pref_of(v);
          const ref::RefPreferenceList& r = refs[static_cast<std::size_t>(v)];
          ASSERT_EQ(p.degree(), r.degree());
          // rank_of over the whole opposite side plus out-of-range probes.
          for (NodeId u = -2; u < universe + 2; ++u) {
            EXPECT_EQ(p.rank_of(u), r.rank_of(u)) << "v=" << v << " u=" << u;
          }
          if (p.empty()) continue;
          // prefers / quantile_of over every ranked pair and several k.
          for (NodeId i = 0; i < p.degree(); ++i) {
            const NodeId a = p.at_rank(i);
            EXPECT_EQ(p.at_rank(i), r.ranked()[static_cast<std::size_t>(i)]);
            for (const NodeId k : {1, 2, 5, p.degree()}) {
              EXPECT_EQ(p.quantile_of(a, k), r.quantile_of(a, k));
            }
            const NodeId b = p.at_rank((i + 1) % p.degree());
            EXPECT_EQ(p.prefers(a, b), r.prefers(a, b));
            EXPECT_EQ(p.prefers_over_partner(a, kNoNode),
                      r.prefers_over_partner(a, kNoNode));
            EXPECT_EQ(p.prefers_over_partner(a, b),
                      r.prefers_over_partner(a, b));
          }
        }
      };
      check_side(inst.n_men(), inst.n_women(),
                 [&](NodeId m) -> PreferenceList {
                   return inst.man_pref(m);
                 },
                 ri.men);
      check_side(inst.n_women(), inst.n_men(),
                 [&](NodeId w) -> PreferenceList {
                   return inst.woman_pref(w);
                 },
                 ri.women);
    }
  }
}

// ---- Serial certifier vs the reference scans ---------------------------

TEST(CertifierVsReference, CountsWitnessesAndMetricsAgree) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const Instance& inst : certify_instances(seed)) {
      const ref::RefInstance ri(inst);
      for (const Matching& m : certify_matchings(inst, seed)) {
        EXPECT_EQ(blocking_pairs(inst, m), ref::blocking_pairs(ri, m));
        EXPECT_EQ(first_blocking_pair(inst, m),
                  ref::first_blocking_pair(ri, m));
        EXPECT_EQ(count_blocking_pairs(inst, m),
                  ref::count_blocking_pairs(ri, m));
        EXPECT_EQ(is_stable(inst, m),
                  !ref::first_blocking_pair(ri, m).has_value());
        for (const double eps : {0.0, 0.05, 0.25, 0.8}) {
          EXPECT_EQ(eps_blocking_pairs(inst, m, eps),
                    ref::eps_blocking_pairs(ri, m, eps))
              << "eps=" << eps;
          EXPECT_EQ(first_eps_blocking_pair(inst, m, eps),
                    ref::first_eps_blocking_pair(ri, m, eps))
              << "eps=" << eps;
          EXPECT_EQ(count_eps_blocking_pairs(inst, m, eps),
                    ref::count_eps_blocking_pairs(ri, m, eps))
              << "eps=" << eps;
          EXPECT_EQ(is_almost_stable(inst, m, eps),
                    ref::is_almost_stable(ri, m, eps))
              << "eps=" << eps;
        }
        expect_metrics_eq(compute_metrics(inst, m),
                          ref::compute_metrics(ri, m), "metrics vs ref");
      }
    }
  }
}

// The almost-stability decision right at the budget boundary: eps chosen
// so the budget sits exactly on, just under, and just over the true
// blocking-pair count.
TEST(CertifierVsReference, AlmostStableBoundaryAgrees) {
  const Instance inst = gen::complete_uniform(24, 7);
  const ref::RefInstance ri(inst);
  const Matching m = random_partial_matching(inst, 99);
  const auto count = static_cast<double>(count_blocking_pairs(inst, m));
  ASSERT_GT(count, 0.0);
  const auto edges = static_cast<double>(inst.edge_count());
  for (const double budget : {count - 1.0, count - 0.5, count, count + 0.5}) {
    const double eps = budget / edges;
    EXPECT_EQ(is_almost_stable(inst, m, eps), ref::is_almost_stable(ri, m, eps))
        << budget;
  }
}

// A malformed matching (a man matched to a woman not on his list) must
// throw a CheckError rather than produce a count.
TEST(CertifierVsReference, UnrankedPartnerThrows) {
  std::vector<Ranking> men = {{0, 1}, {0}};
  std::vector<Ranking> women = {{0, 1}, {0}};
  const Instance inst(std::move(men), std::move(women));
  Matching m(inst.graph().node_count());
  // Man 1 is matched to woman 1, whom he does not rank.
  m.add(inst.graph().man_id(1), inst.graph().woman_id(1));
  EXPECT_THROW(count_blocking_pairs(inst, m), CheckError);
  EXPECT_THROW(count_eps_blocking_pairs(inst, m, 0.1), CheckError);
}

}  // namespace
}  // namespace dasm
