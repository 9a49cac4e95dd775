#include "gen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace dasm::gen {

namespace {

// The men's acceptable partners as one CSR: man m's are
// ids[offsets[m], offsets[m + 1]). Generators append one man at a time.
struct Adjacency {
  std::vector<std::int64_t> offsets{0};
  std::vector<NodeId> ids;

  void end_man() { offsets.push_back(static_cast<std::int64_t>(ids.size())); }
};

// Builds an Instance from the men's adjacency by ranking every player's
// acceptable partners in an independent uniformly random order: each
// man's row in turn, then each woman's. A woman's row, before her
// shuffle, holds the men who accept her in ascending order — the
// counting-sort transpose of the men's rows.
Instance from_adjacency(Adjacency adj, NodeId n_women, Xoshiro256& rng) {
  const auto n_men = static_cast<NodeId>(adj.offsets.size() - 1);
  const auto men_total = static_cast<std::int64_t>(adj.ids.size());
  std::vector<std::int64_t> fill(static_cast<std::size_t>(n_women) + 1, 0);
  for (const NodeId w : adj.ids) ++fill[static_cast<std::size_t>(w) + 1];
  std::partial_sum(fill.begin(), fill.end(), fill.begin());
  for (NodeId w = 0; w < n_women; ++w) {
    adj.offsets.push_back(men_total + fill[static_cast<std::size_t>(w) + 1]);
  }
  adj.ids.resize(static_cast<std::size_t>(2 * men_total));
  for (NodeId m = 0; m < n_men; ++m) {
    for (auto i = static_cast<std::size_t>(adj.offsets[m]);
         i < static_cast<std::size_t>(adj.offsets[m + 1]); ++i) {
      const auto w = static_cast<std::size_t>(adj.ids[i]);
      adj.ids[static_cast<std::size_t>(men_total + fill[w]++)] = m;
    }
  }
  for (std::size_t v = 0; v + 1 < adj.offsets.size(); ++v) {
    std::span<NodeId> row(adj.ids.data() + adj.offsets[v],
                          static_cast<std::size_t>(adj.offsets[v + 1] -
                                                   adj.offsets[v]));
    rng.shuffle(row);
  }
  return Instance(n_men, n_women, std::move(adj.offsets), std::move(adj.ids));
}

std::vector<NodeId> identity_permutation(NodeId n) {
  std::vector<NodeId> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

}  // namespace

Instance complete_uniform(NodeId n, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  Xoshiro256 rng = derive_stream(seed, 0xC0);
  const auto row = identity_permutation(n);
  Adjacency adj;
  for (NodeId m = 0; m < n; ++m) {
    adj.ids.insert(adj.ids.end(), row.begin(), row.end());
    adj.end_man();
  }
  return from_adjacency(std::move(adj), n, rng);
}

Instance incomplete_uniform(NodeId n_men, NodeId n_women, double p,
                            std::uint64_t seed) {
  DASM_CHECK(n_men >= 1 && n_women >= 1);
  DASM_CHECK(p >= 0.0 && p <= 1.0);
  Xoshiro256 rng = derive_stream(seed, 0x1C);
  // rng.bernoulli(p), draw for draw, as one integer compare.
  const std::uint64_t threshold = Xoshiro256::bernoulli_threshold(p);
  Adjacency adj;
  for (NodeId m = 0; m < n_men; ++m) {
    for (NodeId w = 0; w < n_women; ++w) {
      if (rng.bernoulli_below(threshold)) adj.ids.push_back(w);
    }
    adj.end_man();
  }
  return from_adjacency(std::move(adj), n_women, rng);
}

Instance regular_bipartite(NodeId n, NodeId d, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(d >= 1 && d <= n);
  Xoshiro256 rng = derive_stream(seed, 0x4E);
  auto base = identity_permutation(n);
  rng.shuffle(base);
  // d cyclic shifts of one permutation: man i's neighbours are distinct
  // and every woman appears in exactly d lists.
  Adjacency adj;
  for (NodeId m = 0; m < n; ++m) {
    for (NodeId t = 0; t < d; ++t) {
      adj.ids.push_back(base[static_cast<std::size_t>((m + t) % n)]);
    }
    adj.end_man();
  }
  return from_adjacency(std::move(adj), n, rng);
}

Instance bounded_degree(NodeId n, NodeId d, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(d >= 1 && d <= n);
  Xoshiro256 rng = derive_stream(seed, 0xBD);
  // d random matchings, drawn first; man m then takes his partner in each,
  // in matching order, skipping repeats.
  std::vector<std::vector<NodeId>> perms;
  for (NodeId t = 0; t < d; ++t) {
    perms.push_back(identity_permutation(n));
    rng.shuffle(perms.back());
  }
  Adjacency adj;
  for (NodeId m = 0; m < n; ++m) {
    const std::int64_t first = adj.offsets.back();
    for (const auto& perm : perms) {
      const NodeId w = perm[static_cast<std::size_t>(m)];
      if (std::find(adj.ids.begin() + first, adj.ids.end(), w) ==
          adj.ids.end()) {
        adj.ids.push_back(w);
      }
    }
    adj.end_man();
  }
  return from_adjacency(std::move(adj), n, rng);
}

Instance almost_regular(NodeId n, NodeId d_min, NodeId d_max,
                        std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(d_min >= 1 && d_min <= d_max && d_max <= n);
  Xoshiro256 rng = derive_stream(seed, 0xA5);
  auto pool = identity_permutation(n);
  Adjacency adj;
  for (NodeId m = 0; m < n; ++m) {
    const auto deg = static_cast<std::size_t>(rng.range(d_min, d_max));
    // Partial Fisher–Yates: the first `deg` entries are a uniform sample
    // of distinct women.
    for (std::size_t i = 0; i < deg; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(
                                    rng.below(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    adj.ids.insert(adj.ids.end(), pool.begin(), pool.begin() + deg);
    adj.end_man();
  }
  return from_adjacency(std::move(adj), n, rng);
}

Instance master_list(NodeId n, NodeId swaps, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(swaps >= 0);
  Xoshiro256 rng = derive_stream(seed, 0x3A);
  auto master_women = identity_permutation(n);
  rng.shuffle(master_women);
  auto master_men = identity_permutation(n);
  rng.shuffle(master_men);

  // Each man's list is the women's master order, and each woman's the
  // men's, perturbed by `swaps` random adjacent transpositions; men first.
  const auto size = static_cast<std::size_t>(n);
  std::vector<std::int64_t> offsets(2 * size + 1);
  std::vector<NodeId> ranked;
  ranked.reserve(2 * size * size);
  for (std::size_t v = 0; v < 2 * size; ++v) {
    const auto& master = v < size ? master_women : master_men;
    ranked.insert(ranked.end(), master.begin(), master.end());
    NodeId* list = ranked.data() + v * size;
    for (NodeId s = 0; s < swaps && size >= 2; ++s) {
      const std::size_t i = rng.below(size - 1);
      std::swap(list[i], list[i + 1]);
    }
    offsets[v + 1] = static_cast<std::int64_t>((v + 1) * size);
  }
  return Instance(n, n, std::move(offsets), std::move(ranked));
}

Instance gs_displacement_chain(NodeId n) {
  DASM_CHECK(n >= 2);
  // Men 1..n form the chain (man i's list: w_{i-1}, w_i); man 0 is the
  // destabilizer whose single proposal to w_0 evicts man 1 and starts a
  // cascade in which each subsequent sweep displaces exactly one man.
  std::vector<Ranking> men;
  men.reserve(static_cast<std::size_t>(n) + 1);
  men.emplace_back(std::vector<NodeId>{0});  // destabilizer
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> list{i};
    if (i + 1 < n) list.push_back(i + 1);
    men.emplace_back(std::move(list));
  }
  std::vector<Ranking> women;
  women.reserve(static_cast<std::size_t>(n));
  for (NodeId j = 0; j < n; ++j) {
    // w_j is ranked by chain man j+1 (his first choice) and chain man j
    // (his second choice, when j >= 1); w_0 is also ranked by the
    // destabilizer (man index 0). Preferred: the later proposer.
    std::vector<NodeId> list;
    if (j == 0) {
      list = {0, 1};  // destabilizer preferred over chain man 1
    } else {
      list = {static_cast<NodeId>(j), static_cast<NodeId>(j + 1)};
    }
    women.emplace_back(std::move(list));
  }
  return Instance(std::move(men), std::move(women));
}

namespace {

// Weighted ranking without replacement via exponential-race keys: item j
// with weight w_j gets key Exp(1)/w_j; sorting ascending samples a
// Plackett–Luce ranking in one pass.
std::vector<NodeId> zipf_ranking(NodeId n, double s,
                                 const std::vector<NodeId>& popularity_order,
                                 Xoshiro256& rng) {
  std::vector<std::pair<double, NodeId>> keyed;
  keyed.reserve(static_cast<std::size_t>(n));
  for (NodeId rank = 0; rank < n; ++rank) {
    const NodeId who = popularity_order[static_cast<std::size_t>(rank)];
    const double w = std::pow(static_cast<double>(rank) + 1.0, -s);
    double u = rng.uniform01();
    if (u <= 0.0) u = 1e-300;
    keyed.emplace_back(-std::log(u) / w, who);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<NodeId> ranked;
  ranked.reserve(keyed.size());
  for (const auto& [key, who] : keyed) ranked.push_back(who);
  return ranked;
}

}  // namespace

Instance zipf_popularity(NodeId n, double s, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(s >= 0.0);
  Xoshiro256 rng = derive_stream(seed, 0x21F);
  auto popular_women = identity_permutation(n);
  rng.shuffle(popular_women);
  auto popular_men = identity_permutation(n);
  rng.shuffle(popular_men);
  std::vector<Ranking> men;
  men.reserve(static_cast<std::size_t>(n));
  for (NodeId m = 0; m < n; ++m) {
    men.emplace_back(zipf_ranking(n, s, popular_women, rng));
  }
  std::vector<Ranking> women;
  women.reserve(static_cast<std::size_t>(n));
  for (NodeId w = 0; w < n; ++w) {
    women.emplace_back(zipf_ranking(n, s, popular_men, rng));
  }
  return Instance(std::move(men), std::move(women));
}

Instance geometric_knn(NodeId n, NodeId k, std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(k >= 1 && k <= n);
  Xoshiro256 rng = derive_stream(seed, 0x6E0);
  struct Point {
    double x;
    double y;
  };
  std::vector<Point> men_pos(static_cast<std::size_t>(n));
  std::vector<Point> women_pos(static_cast<std::size_t>(n));
  std::vector<double> rating(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    men_pos[static_cast<std::size_t>(i)] = {rng.uniform01(), rng.uniform01()};
    women_pos[static_cast<std::size_t>(i)] = {rng.uniform01(),
                                              rng.uniform01()};
    rating[static_cast<std::size_t>(i)] = rng.uniform01();
  }
  std::vector<std::vector<NodeId>> women_cands(static_cast<std::size_t>(n));
  std::vector<Ranking> men;
  men.reserve(static_cast<std::size_t>(n));
  for (NodeId m = 0; m < n; ++m) {
    std::vector<std::pair<double, NodeId>> by_dist;
    by_dist.reserve(static_cast<std::size_t>(n));
    const Point p = men_pos[static_cast<std::size_t>(m)];
    for (NodeId w = 0; w < n; ++w) {
      const Point q = women_pos[static_cast<std::size_t>(w)];
      const double dx = p.x - q.x;
      const double dy = p.y - q.y;
      by_dist.emplace_back(dx * dx + dy * dy, w);
    }
    std::partial_sort(by_dist.begin(), by_dist.begin() + k, by_dist.end());
    std::vector<NodeId> ranked;
    ranked.reserve(static_cast<std::size_t>(k));
    for (NodeId i = 0; i < k; ++i) {
      const NodeId w = by_dist[static_cast<std::size_t>(i)].second;
      ranked.push_back(w);
      women_cands[static_cast<std::size_t>(w)].push_back(m);
    }
    men.emplace_back(std::move(ranked));
  }
  std::vector<Ranking> women;
  women.reserve(static_cast<std::size_t>(n));
  for (NodeId w = 0; w < n; ++w) {
    auto cand = women_cands[static_cast<std::size_t>(w)];
    std::sort(cand.begin(), cand.end(), [&](NodeId a, NodeId b) {
      const double ra = rating[static_cast<std::size_t>(a)];
      const double rb = rating[static_cast<std::size_t>(b)];
      return ra != rb ? ra > rb : a < b;
    });
    women.emplace_back(std::move(cand));
  }
  return Instance(std::move(men), std::move(women));
}

Instance windowed_acquaintance(NodeId n, NodeId window, NodeId long_ties,
                               std::uint64_t seed) {
  DASM_CHECK(n >= 1);
  DASM_CHECK(window >= 0 && long_ties >= 0);
  Xoshiro256 rng = derive_stream(seed, 0x50C1);
  std::vector<std::vector<bool>> knows(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  for (NodeId m = 0; m < n; ++m) {
    for (NodeId d = -window / 2; d <= window / 2; ++d) {
      const NodeId w = static_cast<NodeId>(((m + d) % n + n) % n);
      knows[static_cast<std::size_t>(m)][static_cast<std::size_t>(w)] = true;
    }
    for (NodeId t = 0; t < long_ties; ++t) {
      knows[static_cast<std::size_t>(m)][rng.below(
          static_cast<std::uint64_t>(n))] = true;
    }
  }
  auto rank_by_affinity = [&](NodeId self, std::vector<NodeId> others) {
    std::vector<std::pair<double, NodeId>> scored;
    scored.reserve(others.size());
    for (NodeId o : others) {
      const NodeId raw = self > o ? self - o : o - self;
      const double dist = std::min(raw, static_cast<NodeId>(n - raw));
      scored.emplace_back(dist + 4.0 * rng.uniform01(), o);
    }
    std::sort(scored.begin(), scored.end());
    std::vector<NodeId> ranked;
    ranked.reserve(scored.size());
    for (const auto& [score, o] : scored) ranked.push_back(o);
    return ranked;
  };
  std::vector<Ranking> men;
  men.reserve(static_cast<std::size_t>(n));
  std::vector<std::vector<NodeId>> women_know(static_cast<std::size_t>(n));
  for (NodeId m = 0; m < n; ++m) {
    std::vector<NodeId> list;
    for (NodeId w = 0; w < n; ++w) {
      if (knows[static_cast<std::size_t>(m)][static_cast<std::size_t>(w)]) {
        list.push_back(w);
        women_know[static_cast<std::size_t>(w)].push_back(m);
      }
    }
    men.emplace_back(rank_by_affinity(m, std::move(list)));
  }
  std::vector<Ranking> women;
  women.reserve(static_cast<std::size_t>(n));
  for (NodeId w = 0; w < n; ++w) {
    women.emplace_back(rank_by_affinity(
        w, std::move(women_know[static_cast<std::size_t>(w)])));
  }
  return Instance(std::move(men), std::move(women));
}

}  // namespace dasm::gen
