// Blocking-pair verification: Definition 1 ((1-eps)-stability) and
// Definition 2 (eps-blocking pairs), plus helpers the experiments use to
// audit the good/bad-men structure of §4.
//
// All predicates stream over the edge set in (man, rank) order. The
// vector-returning functions materialize every witness; the count_* /
// is_* / first_* forms never build the vector — they count in place, stop
// at the first witness, or stop at the decision threshold, and the filter
// of the *_among forms is pushed into the scan so filtered-out men skip
// their whole preference list. All forms agree exactly with the
// materializing ones (same scan order, same predicate arithmetic).
//
// Since PR 8 the scans read ranks straight from the instance's flat
// arenas and exploit scan order: the classic predicate can only fire at
// ranks the man prefers to his partner, and the Definition 2 man-side gap
// is monotone decreasing in rank, so both scans visit only the prefix of
// each list that can still produce a witness — without changing which
// pairs are reported.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/matching.hpp"
#include "stable/instance.hpp"

namespace dasm {

/// One blocking pair, by man index and woman index.
struct BlockingPair {
  NodeId man;
  NodeId woman;

  friend bool operator==(const BlockingPair&, const BlockingPair&) = default;
  friend auto operator<=>(const BlockingPair&, const BlockingPair&) = default;
};

/// All blocking pairs of `matching` w.r.t. the instance (the matching is
/// over the communication graph's node-id space). A pair (m, w) in E \ M
/// blocks when m and w strictly prefer each other to their partners;
/// unmatched players prefer any acceptable partner (§2.1).
std::vector<BlockingPair> blocking_pairs(const Instance& inst,
                                         const Matching& matching);

/// The first blocking pair in (man, rank) scan order, or nullopt. This is
/// the early-exit witness test behind is_stable().
std::optional<BlockingPair> first_blocking_pair(const Instance& inst,
                                                const Matching& matching);

std::int64_t count_blocking_pairs(const Instance& inst,
                                  const Matching& matching);

/// True iff the matching induces no blocking pairs.
bool is_stable(const Instance& inst, const Matching& matching);

/// Definition 1: blocking pairs <= eps * |E|. Stops scanning as soon as
/// the count exceeds the budget.
bool is_almost_stable(const Instance& inst, const Matching& matching,
                      double eps);

/// Definition 2: pairs (m, w) in E with
///   P^m(p(m)) - P^m(w) >= eps * deg(m)  and
///   P^w(p(w)) - P^w(m) >= eps * deg(w),
/// using 1-based ranks and P^v(no partner) = deg(v) + 1.
std::vector<BlockingPair> eps_blocking_pairs(const Instance& inst,
                                             const Matching& matching,
                                             double eps);

/// The first eps-blocking pair in (man, rank) scan order, or nullopt.
std::optional<BlockingPair> first_eps_blocking_pair(
    const Instance& inst, const Matching& matching, double eps);

std::int64_t count_eps_blocking_pairs(const Instance& inst,
                                      const Matching& matching, double eps);

/// eps-blocking pairs whose man is selected by `man_filter` (size n_men).
/// Used to audit Lemma 3 (good men are in no (2/k)-blocking pairs) and
/// Lemma 5 (bad men contribute few).
std::int64_t count_eps_blocking_pairs_among(
    const Instance& inst, const Matching& matching, double eps,
    const std::vector<bool>& man_filter);

/// Blocking pairs whose man is selected by `man_filter`.
std::int64_t count_blocking_pairs_among(const Instance& inst,
                                        const Matching& matching,
                                        const std::vector<bool>& man_filter);

/// Validates that `matching` only pairs mutually acceptable players and is
/// consistent; throws CheckError otherwise. Returns the number of matched
/// pairs.
std::int64_t validate_matching(const Instance& inst, const Matching& matching);

}  // namespace dasm
