// Heavy cross-product property suite: for every (family x epsilon x
// backend x seed) combination, one ASM run must satisfy ALL of the
// paper's run-level invariants simultaneously:
//   P1  the matching is valid and consistent (mutually acceptable pairs);
//   P2  Theorem 3: blocking pairs <= eps * |E|;
//   P3  Lemma 3: no (2/k)-blocking pair touches a good man;
//   P4  Lemma 7 certificate: blocking <= 4|E|/k + sum_bad |Q^m|;
//   P5  Lemma 5: sum_bad |Q^m| <= 2 delta/(1-delta) |E|;
//   P6  accounting sanity: executed <= scheduled, message budget kept.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/almost_regular_asm.hpp"
#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

using Param = std::tuple<std::string, double, mm::Backend, std::uint64_t>;

class AsmPropertySuite : public ::testing::TestWithParam<Param> {};

Instance build(const std::string& family, std::uint64_t seed) {
  const NodeId n = 48;
  if (family == "complete") return gen::complete_uniform(n, seed);
  if (family == "incomplete")
    return gen::incomplete_uniform(n, n, 0.25, seed);
  if (family == "unbalanced")
    return gen::incomplete_uniform(n / 2, n + 30, 0.3, seed);
  if (family == "regular") return gen::regular_bipartite(n, 8, seed);
  if (family == "bounded") return gen::bounded_degree(n, 6, seed);
  if (family == "master") return gen::master_list(n, n / 2, seed);
  if (family == "almost_regular") return gen::almost_regular(n, 4, 10, seed);
  if (family == "chain") return gen::gs_displacement_chain(n);
  DASM_CHECK_MSG(false, "unknown family");
  return gen::complete_uniform(n, seed);
}

TEST_P(AsmPropertySuite, AllRunLevelInvariantsHold) {
  const auto& [family, eps, backend, seed] = GetParam();
  const Instance inst = build(family, seed);
  AsmParams params;
  params.epsilon = eps;
  params.mm_backend = backend;
  params.seed = seed * 1000003 + 17;
  const AsmResult r = run_asm(inst, params);

  // P1: validity.
  validate_matching(inst, r.matching);
  ASSERT_EQ(r.good_count + r.bad_count, inst.n_men());

  // P2: Theorem 3.
  const auto blocking = count_blocking_pairs(inst, r.matching);
  EXPECT_LE(static_cast<double>(blocking),
            eps * static_cast<double>(inst.edge_count()));

  // P3: Lemma 3.
  const double two_over_k = 2.0 / static_cast<double>(r.schedule.k);
  EXPECT_EQ(count_eps_blocking_pairs_among(inst, r.matching, two_over_k,
                                           r.good_men),
            0);

  // P4: per-run certificate.
  const auto cert = blocking_certificate(inst, r);
  EXPECT_TRUE(cert.certifies(blocking))
      << blocking << " > " << cert.certified_bound;

  // P5: Lemma 5's Q-mass bound.
  EXPECT_LE(static_cast<double>(cert.bad_q_sum),
            2.0 * r.schedule.delta / (1.0 - r.schedule.delta) *
                static_cast<double>(inst.edge_count()));

  // P6: accounting.
  EXPECT_LE(r.net.executed_rounds, r.net.scheduled_rounds);
  EXPECT_LE(r.net.max_message_bits, 64);
  EXPECT_EQ(r.net.count_of(MsgType::kGsPropose), 0);  // no foreign traffic
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const std::string& family = std::get<0>(info.param);
  const double eps = std::get<1>(info.param);
  const mm::Backend backend = std::get<2>(info.param);
  const std::uint64_t seed = std::get<3>(info.param);
  std::string name = family + "_eps";
  for (const char c : std::to_string(eps)) {
    name += (c == '.') ? 'p' : c;
  }
  switch (backend) {
    case mm::Backend::kPointerGreedy:
      name += "_det";
      break;
    case mm::Backend::kIsraeliItai:
      name += "_ii";
      break;
    case mm::Backend::kRandomPriority:
      name += "_rp";
      break;
    case mm::Backend::kColorClass:
      name += "_cc";
      break;
  }
  return name + "_s" + std::to_string(seed);
}

// The randomized variants run the same invariant battery over a smaller
// grid (they wrap the same engine; what changes is the schedule and the
// subroutine budget).
class RandAsmPropertySuite
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(RandAsmPropertySuite, TheoremFiveAndSixInvariants) {
  const std::string& family = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const Instance inst = build(family, seed);

  RandAsmParams rp;
  rp.epsilon = 0.25;
  rp.seed = seed * 31 + 5;
  const AsmResult rand_r = run_rand_asm(inst, rp);
  validate_matching(inst, rand_r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, rand_r.matching)),
            0.25 * static_cast<double>(inst.edge_count()));
  EXPECT_EQ(count_eps_blocking_pairs_among(
                inst, rand_r.matching,
                2.0 / static_cast<double>(rand_r.schedule.k),
                rand_r.good_men),
            0);

  AlmostRegularAsmParams ap;
  ap.epsilon = 0.25;
  ap.seed = seed * 17 + 3;
  const AsmResult ar = run_almost_regular_asm(inst, ap);
  validate_matching(inst, ar.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, ar.matching)),
            0.25 * static_cast<double>(inst.edge_count()));
  // Dropped men must be unmatched (they were Definition-3-unsatisfied).
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    if (ar.dropped_men[static_cast<std::size_t>(m)]) {
      EXPECT_FALSE(ar.matching.is_matched(inst.graph().man_id(m)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandAsmPropertySuite,
    ::testing::Combine(
        ::testing::Values(std::string("complete"), std::string("incomplete"),
                          std::string("regular"), std::string("master")),
        ::testing::Values(1, 2, 3)));

INSTANTIATE_TEST_SUITE_P(
    Grid, AsmPropertySuite,
    ::testing::Combine(
        ::testing::Values(std::string("complete"), std::string("incomplete"),
                          std::string("unbalanced"), std::string("regular"),
                          std::string("bounded"), std::string("master"),
                          std::string("almost_regular"),
                          std::string("chain")),
        ::testing::Values(0.5, 0.25, 0.125),
        ::testing::Values(mm::Backend::kPointerGreedy,
                          mm::Backend::kIsraeliItai,
                          mm::Backend::kRandomPriority),
        ::testing::Values(1, 2)),
    param_name);

}  // namespace
}  // namespace dasm::core
