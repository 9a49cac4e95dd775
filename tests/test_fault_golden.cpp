// Lossy executions pinned across versions (DESIGN.md §8): digests of the
// NetStats, the matching (or, for a bare network, every published inbox)
// and the transmission trace of
//
//   - reliable asm, rand-asm and mm runs (all four backends) under drop,
//     per-edge drop, duplication, delay and crash-stop plans;
//   - raw (unsequenced) mm runs with an iteration budget;
//   - a bare Network driven with random traffic under each plan, raw,
//     reliable, and reliable with a retransmit cap of 1 (so payloads die),
//
// three seeds each. The table below was recorded by an earlier build of
// the fault layer: a change that moves one fault roll, one delivery, one
// inbox position or one counter fails here. On a mismatch the test prints
// every row as computed, in the table's own format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "svc/digest.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dasm {
namespace {

using svc::Fnv1a;

struct Row {
  std::string cell;
  std::uint64_t net;
  std::uint64_t result;  // matching, or every published inbox
  std::uint64_t trace;

  friend bool operator==(const Row&, const Row&) = default;
};

void mix_stats(Fnv1a& h, const NetStats& s) {
  for (const std::int64_t v :
       {s.executed_rounds, s.scheduled_rounds, s.messages, s.bits,
        std::int64_t{s.max_message_bits}, s.delivered, s.dropped,
        s.duplicated, s.retransmitted, s.filtered}) {
    h.mix(static_cast<std::uint64_t>(v));
  }
  for (const std::int64_t v : s.messages_by_type) {
    h.mix(static_cast<std::uint64_t>(v));
  }
}

std::uint64_t digest_stats(const NetStats& s) {
  Fnv1a h;
  mix_stats(h, s);
  return h.digest();
}

std::uint64_t digest_matching(const Matching& m) {
  Fnv1a h;
  for (NodeId v = 0; v < m.node_count(); ++v) {
    h.mix(static_cast<std::uint64_t>(m.partner_of(v)));
  }
  return h.digest();
}

void mix_message(Fnv1a& h, const Message& msg) {
  h.mix(static_cast<std::uint64_t>(msg.type));
  h.mix(static_cast<std::uint64_t>(msg.a));
  h.mix(static_cast<std::uint64_t>(msg.b));
}

std::uint64_t digest_trace(const std::vector<TraceEvent>& trace) {
  Fnv1a h;
  for (const TraceEvent& e : trace) {
    h.mix(static_cast<std::uint64_t>(e.round));
    h.mix(static_cast<std::uint64_t>(e.from));
    h.mix(static_cast<std::uint64_t>(e.to));
    mix_message(h, e.msg);
  }
  return h.digest();
}

// A run that refuses to finish is pinned by its message.
Row thrown(const std::string& cell, const CheckError& e) {
  Fnv1a h;
  h.mix(std::string_view(e.message()));
  return Row{cell, h.digest(), 0, 0};
}

enum class PlanKind { kDrop, kEdgeDrop, kDuplicate, kDelay, kCrash };
const PlanKind kPlans[] = {PlanKind::kDrop, PlanKind::kEdgeDrop,
                           PlanKind::kDuplicate, PlanKind::kDelay,
                           PlanKind::kCrash};

const char* plan_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::kDrop:
      return "drop";
    case PlanKind::kEdgeDrop:
      return "edge-drop";
    case PlanKind::kDuplicate:
      return "duplicate";
    case PlanKind::kDelay:
      return "delay";
    case PlanKind::kCrash:
      return "crash";
  }
  return "?";
}

// One plan per kind on graph `g`. The per-edge plan makes both directions
// of three edges very lossy; the crash plan stops two nodes a few wire
// rounds in, while payloads addressed to them are still open.
FaultPlan make_plan(PlanKind kind, std::uint64_t seed, const Graph& g) {
  FaultPlan plan;
  plan.seed = seed * 7919 + 13;
  switch (kind) {
    case PlanKind::kDrop:
      plan.drop = 0.2;
      break;
    case PlanKind::kEdgeDrop: {
      plan.drop = 0.02;
      int picked = 0;
      for (NodeId v = 0; v < g.node_count() && picked < 3; ++v) {
        const auto nb = g.neighbors(v);
        if (nb.empty() || nb.front() < v) continue;
        plan.edge_drops.push_back(EdgeDrop{v, nb.front(), 0.6});
        plan.edge_drops.push_back(EdgeDrop{nb.front(), v, 0.6});
        ++picked;
      }
      break;
    }
    case PlanKind::kDuplicate:
      plan.drop = 0.05;
      plan.duplicate = 0.3;
      plan.max_delay = 2;
      break;
    case PlanKind::kDelay:
      plan.drop = 0.05;
      plan.delay = 0.3;
      plan.max_delay = 3;
      break;
    case PlanKind::kCrash:
      plan.drop = 0.1;
      plan.crashes.push_back(
          CrashEvent{static_cast<Round>(3 + seed), static_cast<NodeId>(1)});
      plan.crashes.push_back(CrashEvent{static_cast<Round>(9 + 2 * seed),
                                        g.node_count() - 2});
      break;
  }
  return plan;
}

const std::uint64_t kSeeds[] = {1, 2, 3};

std::string cell_name(const std::string& what, PlanKind kind,
                      std::uint64_t seed) {
  return what + "/" + plan_name(kind) + "/s" + std::to_string(seed);
}

void add_asm_rows(std::vector<Row>& rows) {
  for (const std::uint64_t seed : kSeeds) {
    const Instance inst = gen::complete_uniform(10, seed + 40);
    const Graph& g = inst.graph().graph();
    for (const PlanKind kind : kPlans) {
      core::AsmParams params;
      params.epsilon = 0.5;
      params.seed = seed;
      params.mm_backend = seed == 2 ? mm::Backend::kIsraeliItai
                                    : mm::Backend::kPointerGreedy;
      params.net_trace_events = 1 << 16;
      params.fault_plan = make_plan(kind, seed, g);
      params.retransmit_after = static_cast<int>(seed);
      const std::string cell = cell_name("asm", kind, seed);
      try {
        const core::AsmResult r = core::run_asm(inst, params);
        rows.push_back(Row{cell, digest_stats(r.net),
                           digest_matching(r.matching),
                           digest_trace(r.net_trace)});
      } catch (const CheckError& e) {
        rows.push_back(thrown(cell, e));
      }
    }
  }
}

void add_rand_asm_rows(std::vector<Row>& rows) {
  for (const std::uint64_t seed : kSeeds) {
    const Instance inst = gen::complete_uniform(10, seed + 50);
    const Graph& g = inst.graph().graph();
    for (const PlanKind kind : kPlans) {
      core::RandAsmParams params;
      params.epsilon = 0.5;
      params.seed = seed;
      params.net_trace_events = 1 << 16;
      params.fault_plan = make_plan(kind, seed, g);
      params.retransmit_after = 2;
      const std::string cell = cell_name("rand-asm", kind, seed);
      try {
        const core::AsmResult r = core::run_rand_asm(inst, params);
        rows.push_back(Row{cell, digest_stats(r.net),
                           digest_matching(r.matching),
                           digest_trace(r.net_trace)});
      } catch (const CheckError& e) {
        rows.push_back(thrown(cell, e));
      }
    }
  }
}

const mm::Backend kBackends[] = {mm::Backend::kPointerGreedy,
                                 mm::Backend::kIsraeliItai,
                                 mm::Backend::kRandomPriority,
                                 mm::Backend::kColorClass};

Row mm_row(const std::string& cell, const Graph& g,
           const std::vector<bool>& is_left, const mm::RunConfig& config) {
  try {
    const mm::RunResult r = mm::run_maximal_matching(g, is_left, config);
    return Row{cell, digest_stats(r.net), digest_matching(r.matching),
               digest_trace(r.trace)};
  } catch (const CheckError& e) {
    return thrown(cell, e);
  }
}

void add_mm_rows(std::vector<Row>& rows) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [g, is_left] = testing::random_bipartite(9, 9, 0.35, seed + 60);
    for (const mm::Backend backend : kBackends) {
      const std::string what = std::string("mm-") + mm::to_string(backend);
      for (const PlanKind kind : kPlans) {
        mm::RunConfig config;
        config.backend = backend;
        config.seed = seed;
        config.trace_events = 1 << 16;
        config.fault_plan = make_plan(kind, seed, g);
        config.retransmit_after = 2;
        // A crashed node never answers, so a neighbour waiting on it may
        // never go quiescent: crash runs get an iteration budget.
        if (kind == PlanKind::kCrash) config.max_iterations = 12;
        rows.push_back(mm_row(cell_name(what, kind, seed), g, is_left, config));
      }
      // Raw loss under an iteration budget: unsequenced copies, possibly
      // duplicated and delayed into later rounds.
      mm::RunConfig raw;
      raw.backend = backend;
      raw.seed = seed;
      raw.trace_events = 1 << 16;
      raw.fault_plan = make_plan(PlanKind::kDuplicate, seed, g);
      raw.fault_plan.delay = 0.2;
      raw.max_iterations = 3 + static_cast<int>(seed);
      rows.push_back(
          mm_row(what + "/raw/s" + std::to_string(seed), g, is_left, raw));
    }
  }
}

// A bare Network under random traffic: every published inbox, in node
// order, and the set of receivers, for every round.
Row network_row(const std::string& cell, PlanKind kind, std::uint64_t seed,
                int retransmit_after, int max_retransmits) {
  const Graph g = testing::random_graph(14, 0.35, seed + 70);
  Network net(g);
  net.enable_trace(1 << 16);
  net.set_fault_plan(make_plan(kind, seed, g));
  if (retransmit_after > 0) {
    net.set_reliable_transport(retransmit_after, max_retransmits);
  }
  Xoshiro256 rng = derive_stream(seed, 0x60D);
  Fnv1a inboxes;
  for (int round = 0; round < 40; ++round) {
    net.begin_round();
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (round % 9 != 4 && rng.bernoulli(0.3)) {
          net.send(u, v, Message{MsgType::kPropose, round, u});
        }
      }
    }
    net.end_round();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const InboxView box = net.inbox(v);
      inboxes.mix(static_cast<std::uint64_t>(box.size()));
      for (const Envelope& e : box) {
        inboxes.mix(static_cast<std::uint64_t>(e.from));
        mix_message(inboxes, e.msg);
      }
    }
    // receivers() promises no order, only the set.
    std::vector<NodeId> receivers(net.receivers().begin(),
                                  net.receivers().end());
    std::sort(receivers.begin(), receivers.end());
    for (const NodeId v : receivers) {
      inboxes.mix(static_cast<std::uint64_t>(v));
    }
    inboxes.mix(static_cast<std::uint64_t>(net.pending_wire_copies()));
  }
  return Row{cell, digest_stats(net.stats()), inboxes.digest(),
             digest_trace(net.trace())};
}

void add_network_rows(std::vector<Row>& rows) {
  for (const std::uint64_t seed : kSeeds) {
    for (const PlanKind kind : kPlans) {
      rows.push_back(
          network_row(cell_name("net-raw", kind, seed), kind, seed, 0, 64));
      rows.push_back(network_row(cell_name("net-reliable", kind, seed), kind,
                                 seed, 2, 64));
      rows.push_back(
          network_row(cell_name("net-capped", kind, seed), kind, seed, 1, 1));
    }
  }
}

std::string format_row(const Row& r) {
  std::ostringstream os;
  os << "    {\"" << r.cell << "\", 0x" << std::hex << r.net << "ULL, 0x"
     << r.result << "ULL, 0x" << r.trace << "ULL},";
  return os.str();
}

// clang-format off
const std::vector<Row> kGolden = {
    {"asm/drop/s1", 0x6c9cb33782be3483ULL, 0xd4cfc95defb3b825ULL, 0xa67af038a11236a8ULL},
    {"asm/edge-drop/s1", 0x82d758ddd6fea075ULL, 0xd4cfc95defb3b825ULL, 0xe2505aa57578cf89ULL},
    {"asm/duplicate/s1", 0x83a43b4c04c29378ULL, 0xd4cfc95defb3b825ULL, 0xa22760398edc4407ULL},
    {"asm/delay/s1", 0xb4872010086dbbb3ULL, 0xd4cfc95defb3b825ULL, 0xc4d7bc08e92f203fULL},
    {"asm/crash/s1", 0xa14b8f82e0c4a569ULL, 0x0ULL, 0x0ULL},
    {"asm/drop/s2", 0xf3504926b0b4870dULL, 0xf06bc691da56a325ULL, 0xb9da35dfb417c5a8ULL},
    {"asm/edge-drop/s2", 0x527117dd38416a51ULL, 0xf06bc691da56a325ULL, 0x1e47afc475f22dacULL},
    {"asm/duplicate/s2", 0x1c2e0f9351f04ac1ULL, 0xf06bc691da56a325ULL, 0x3ffe1e6e694bf43ULL},
    {"asm/delay/s2", 0x62f7e8461c532859ULL, 0xf06bc691da56a325ULL, 0x2bf65d023390a8afULL},
    {"asm/crash/s2", 0xf7791ff373e054feULL, 0xe3d7e2d58b601b39ULL, 0xf22e6dc25a1ee490ULL},
    {"asm/drop/s3", 0x62d745ed503a5c7cULL, 0xbaaf8c7927696de5ULL, 0x57618881acf74063ULL},
    {"asm/edge-drop/s3", 0xc89b7da251503c40ULL, 0xbaaf8c7927696de5ULL, 0x612fe147ff461fbbULL},
    {"asm/duplicate/s3", 0xc69e898ed23e4f08ULL, 0xbaaf8c7927696de5ULL, 0x776c82c1364e88f8ULL},
    {"asm/delay/s3", 0x62ca0415aa14b9fcULL, 0xbaaf8c7927696de5ULL, 0xd4340714af4c2da6ULL},
    {"asm/crash/s3", 0xa14a9bea74ee2b18ULL, 0xcd9738f7aa8c9644ULL, 0x7c83920c8bfcb73eULL},
    {"rand-asm/drop/s1", 0xabf7d05cb770add8ULL, 0x3e4f92b4e18a7ca5ULL, 0x2cdc7704c8bc885cULL},
    {"rand-asm/edge-drop/s1", 0xa9fc8edbb9b6f6f0ULL, 0x3e4f92b4e18a7ca5ULL, 0x34a8608e8cf48493ULL},
    {"rand-asm/duplicate/s1", 0xbfaf7f1f4ee5bad2ULL, 0x3e4f92b4e18a7ca5ULL, 0x515fc3973e97c70bULL},
    {"rand-asm/delay/s1", 0x698cf4e72fc60bdfULL, 0x3e4f92b4e18a7ca5ULL, 0x6ab96f81cc71861dULL},
    {"rand-asm/crash/s1", 0xff795914581bf11cULL, 0xa8ee951d6048ba7dULL, 0x2526c9e33f44d01aULL},
    {"rand-asm/drop/s2", 0xe0760b034c9997beULL, 0xdb95839a02098365ULL, 0xad18aafdda8dce0dULL},
    {"rand-asm/edge-drop/s2", 0xf885746482efa21aULL, 0xdb95839a02098365ULL, 0x407c67a049857fe5ULL},
    {"rand-asm/duplicate/s2", 0x69a8330cfabf127eULL, 0xdb95839a02098365ULL, 0xa2d313e248de8d83ULL},
    {"rand-asm/delay/s2", 0x501ac5baa50022cdULL, 0xdb95839a02098365ULL, 0x134a1de1548ef1ecULL},
    {"rand-asm/crash/s2", 0x5a7c8063d58adaa2ULL, 0xfd499af696469036ULL, 0x73981586e2852857ULL},
    {"rand-asm/drop/s3", 0xec06ea844e89f9a2ULL, 0x40ef19c48278d865ULL, 0x94183facea5a9643ULL},
    {"rand-asm/edge-drop/s3", 0x6e71e8712da2d08cULL, 0x40ef19c48278d865ULL, 0xffcd90f11ba7b5a8ULL},
    {"rand-asm/duplicate/s3", 0xe6c800c41b84e2b7ULL, 0x40ef19c48278d865ULL, 0x37c6ef7ba4b50f3aULL},
    {"rand-asm/delay/s3", 0x2e74231e76a0b13bULL, 0x40ef19c48278d865ULL, 0xf58325e95cf30966ULL},
    {"rand-asm/crash/s3", 0xd78c534cf8132e9fULL, 0xed73083b70e4d0a0ULL, 0xe04d26ae59fe9b84ULL},
    {"mm-pointer-greedy(det)/drop/s1", 0x5a1717e253ec46d2ULL, 0xc4262716a104edULL, 0xa453a98d5ab38a55ULL},
    {"mm-pointer-greedy(det)/edge-drop/s1", 0xfc46950ce30932d6ULL, 0xc4262716a104edULL, 0xd388ec742a7d2bc9ULL},
    {"mm-pointer-greedy(det)/duplicate/s1", 0x6c908f7266e68af0ULL, 0xc4262716a104edULL, 0x76acd1b9581ae846ULL},
    {"mm-pointer-greedy(det)/delay/s1", 0x43ac7c3c04333fe9ULL, 0xc4262716a104edULL, 0x1bd2512577f6c4ULL},
    {"mm-pointer-greedy(det)/crash/s1", 0xdd043ea1be51c92fULL, 0xc4262716a104edULL, 0xc8f1b3f494206839ULL},
    {"mm-pointer-greedy(det)/raw/s1", 0x8ba55aad5fff3019ULL, 0x3c2a443f685d0379ULL, 0xe397cb919d98e748ULL},
    {"mm-israeli-itai(rand)/drop/s1", 0xf5a5560adccac187ULL, 0xe54752f9c51eca4ULL, 0xdb57659c898b956eULL},
    {"mm-israeli-itai(rand)/edge-drop/s1", 0xc7e327adab27b37ULL, 0xe54752f9c51eca4ULL, 0x439c888f042c5072ULL},
    {"mm-israeli-itai(rand)/duplicate/s1", 0x9aa3c4bf5c8bba26ULL, 0xe54752f9c51eca4ULL, 0xfe8c0f65a888ee96ULL},
    {"mm-israeli-itai(rand)/delay/s1", 0x59220db16b6373b9ULL, 0xe54752f9c51eca4ULL, 0x9c188f6f5c7e3d7bULL},
    {"mm-israeli-itai(rand)/crash/s1", 0x6cbb7b3d6ae55c13ULL, 0x3645d597dafc531fULL, 0xeba34972dab24663ULL},
    {"mm-israeli-itai(rand)/raw/s1", 0xa455d1252e26888bULL, 0x1e2b275a77f76c19ULL, 0xdc714fefdbcc4a42ULL},
    {"mm-random-priority(rand)/drop/s1", 0xfeca2c9830303028ULL, 0x74e204e5268cd518ULL, 0x5a588589ee7c22b6ULL},
    {"mm-random-priority(rand)/edge-drop/s1", 0xc6672947596bcbc6ULL, 0x74e204e5268cd518ULL, 0xf7e99b6b0f014cb1ULL},
    {"mm-random-priority(rand)/duplicate/s1", 0xa3dc1b4fb0618b84ULL, 0x74e204e5268cd518ULL, 0xd77488c0e83cc9e0ULL},
    {"mm-random-priority(rand)/delay/s1", 0x2562892a22bf8768ULL, 0x74e204e5268cd518ULL, 0xc8a54970bb30c5d1ULL},
    {"mm-random-priority(rand)/crash/s1", 0x34e86a1b333fc997ULL, 0xe2403e8f5c501c60ULL, 0x110705068622cc8aULL},
    {"mm-random-priority(rand)/raw/s1", 0x8a80028bb4955384ULL, 0x5a2de1dfe4c737b2ULL, 0x8b5c6bd2fbf2468aULL},
    {"mm-color-class(det)/drop/s1", 0xe43386998d32c6f2ULL, 0xc4262716a104edULL, 0x62e50329ecc09520ULL},
    {"mm-color-class(det)/edge-drop/s1", 0x53ab38f337b96db2ULL, 0xc4262716a104edULL, 0xd71ec22e124fa083ULL},
    {"mm-color-class(det)/duplicate/s1", 0x3f9d9f6d3d344ef0ULL, 0xc4262716a104edULL, 0x7faa959a73483daeULL},
    {"mm-color-class(det)/delay/s1", 0xb837ebbfa1c9deb4ULL, 0xc4262716a104edULL, 0x3847e03002536084ULL},
    {"mm-color-class(det)/crash/s1", 0xb2eeef3bae230f96ULL, 0x0ULL, 0x0ULL},
    {"mm-color-class(det)/raw/s1", 0xb2eeef3bae230f96ULL, 0x0ULL, 0x0ULL},
    {"mm-pointer-greedy(det)/drop/s2", 0x313edbc76e8ee5b7ULL, 0xadafecb98aee60f7ULL, 0x9a3f446ab6724ba2ULL},
    {"mm-pointer-greedy(det)/edge-drop/s2", 0x142aca1aff6c8375ULL, 0xadafecb98aee60f7ULL, 0xee213c724354c084ULL},
    {"mm-pointer-greedy(det)/duplicate/s2", 0x232c763169f3eb5ULL, 0xadafecb98aee60f7ULL, 0x532f61122dacd48fULL},
    {"mm-pointer-greedy(det)/delay/s2", 0x971518e81f69e17ULL, 0xadafecb98aee60f7ULL, 0x3c3f9b8d1e4c5e97ULL},
    {"mm-pointer-greedy(det)/crash/s2", 0xf46c33bb948e0317ULL, 0xadafecb98aee60f7ULL, 0x6653d90f782b5afeULL},
    {"mm-pointer-greedy(det)/raw/s2", 0x6ba4fcecc0490ba9ULL, 0x72e368763b8c2c59ULL, 0x1426305a8a51c8bcULL},
    {"mm-israeli-itai(rand)/drop/s2", 0x1799d47105ec470fULL, 0xb2c327b072da8544ULL, 0x709c9adbc307343fULL},
    {"mm-israeli-itai(rand)/edge-drop/s2", 0x209ad0f1be2dc967ULL, 0xb2c327b072da8544ULL, 0xaf73081a5ec4b1ULL},
    {"mm-israeli-itai(rand)/duplicate/s2", 0x517b166b8135043bULL, 0xb2c327b072da8544ULL, 0x73836badb7c36e21ULL},
    {"mm-israeli-itai(rand)/delay/s2", 0xc5fbd7a57f89cbf1ULL, 0xb2c327b072da8544ULL, 0x85ca72b9792cb46eULL},
    {"mm-israeli-itai(rand)/crash/s2", 0xc8f47c7b07228b2bULL, 0xb2c327b072da8544ULL, 0xfc1c0d050106721aULL},
    {"mm-israeli-itai(rand)/raw/s2", 0xdd2888af1ea4327aULL, 0x2c296a036e0c043aULL, 0x38cfe0e877bc788aULL},
    {"mm-random-priority(rand)/drop/s2", 0x3cde39b02331e0d9ULL, 0x473d419df9289ba1ULL, 0x10302817ca6bcc9fULL},
    {"mm-random-priority(rand)/edge-drop/s2", 0xbc770c8692a75d3bULL, 0x473d419df9289ba1ULL, 0x18a5becb541b926eULL},
    {"mm-random-priority(rand)/duplicate/s2", 0x9911a67c001b162bULL, 0x473d419df9289ba1ULL, 0x9dbe0d96e7b8f400ULL},
    {"mm-random-priority(rand)/delay/s2", 0xd63c427082bfeaddULL, 0x473d419df9289ba1ULL, 0x462e5fab62d3c339ULL},
    {"mm-random-priority(rand)/crash/s2", 0xa808d57db7ab1229ULL, 0x473d419df9289ba1ULL, 0x597cb5b34d2bf1aaULL},
    {"mm-random-priority(rand)/raw/s2", 0xdcf82f7bc1a500edULL, 0xa7020d3ec33f78d7ULL, 0x46cb4ef2d76e6cafULL},
    {"mm-color-class(det)/drop/s2", 0x4fa404894770e24bULL, 0xadafecb98aee60f7ULL, 0x35fff8c387a6bc9fULL},
    {"mm-color-class(det)/edge-drop/s2", 0x56cb74b66273f1bbULL, 0xadafecb98aee60f7ULL, 0x7dc5beee3cd4ca16ULL},
    {"mm-color-class(det)/duplicate/s2", 0xbead7d52f3a9444fULL, 0xadafecb98aee60f7ULL, 0xedca9cfee7a38efaULL},
    {"mm-color-class(det)/delay/s2", 0x2d3ba10dc4567ddfULL, 0xadafecb98aee60f7ULL, 0xf9ca11057e82d545ULL},
    {"mm-color-class(det)/crash/s2", 0xb2eeef3bae230f96ULL, 0x0ULL, 0x0ULL},
    {"mm-color-class(det)/raw/s2", 0xf61aa5ab58d5e5f5ULL, 0x0ULL, 0x0ULL},
    {"mm-pointer-greedy(det)/drop/s3", 0x4cce1687dfea1a18ULL, 0x4a782964eb372d93ULL, 0xeab3a246cb95773aULL},
    {"mm-pointer-greedy(det)/edge-drop/s3", 0xbe14eee1501c1e48ULL, 0x4a782964eb372d93ULL, 0x3a2d912d06a04cd0ULL},
    {"mm-pointer-greedy(det)/duplicate/s3", 0x59f7590cdac763e6ULL, 0x4a782964eb372d93ULL, 0x8e2eb3342efc4466ULL},
    {"mm-pointer-greedy(det)/delay/s3", 0x98d3f66ef2d0bf99ULL, 0x4a782964eb372d93ULL, 0xa2bb3a8c232a663ULL},
    {"mm-pointer-greedy(det)/crash/s3", 0x658a8434af0774eULL, 0x4a782964eb372d93ULL, 0x2ee88126b0b0b67eULL},
    {"mm-pointer-greedy(det)/raw/s3", 0x17ebc88133747cbbULL, 0x90093a7f419ff3b8ULL, 0xf65a24e79d3db0c0ULL},
    {"mm-israeli-itai(rand)/drop/s3", 0x5b3ad5cae3fff73fULL, 0xfdbd20e59eee570aULL, 0xa00095a726457f3aULL},
    {"mm-israeli-itai(rand)/edge-drop/s3", 0x61f0b32605e9fe69ULL, 0xfdbd20e59eee570aULL, 0xf99007df8f0b6825ULL},
    {"mm-israeli-itai(rand)/duplicate/s3", 0x92cd79be13d2aaa1ULL, 0xfdbd20e59eee570aULL, 0xc1288625005e31edULL},
    {"mm-israeli-itai(rand)/delay/s3", 0x74c935e86c9a451fULL, 0xfdbd20e59eee570aULL, 0x96a5af676a217bffULL},
    {"mm-israeli-itai(rand)/crash/s3", 0xcd9091655f015b9eULL, 0xfdbd20e59eee570aULL, 0x151cb95708908184ULL},
    {"mm-israeli-itai(rand)/raw/s3", 0x88801a66e9e07b0cULL, 0x567456f0a4ec339eULL, 0x2a3c294a73312c81ULL},
    {"mm-random-priority(rand)/drop/s3", 0x7abf982e38f4348eULL, 0x261064ea74deb064ULL, 0xb6bc3a3e4c201d6ULL},
    {"mm-random-priority(rand)/edge-drop/s3", 0x2b88170717f1453eULL, 0x261064ea74deb064ULL, 0xba2bfe7de070fadaULL},
    {"mm-random-priority(rand)/duplicate/s3", 0x3c2728ffc44afa5eULL, 0x261064ea74deb064ULL, 0xd09fa852bb1d8596ULL},
    {"mm-random-priority(rand)/delay/s3", 0x30f9247d6fd84bc0ULL, 0x261064ea74deb064ULL, 0x895f5fc69927da23ULL},
    {"mm-random-priority(rand)/crash/s3", 0x977cd3accb815fb0ULL, 0x3284ade34667735eULL, 0xc0753b5df04ade53ULL},
    {"mm-random-priority(rand)/raw/s3", 0x3df1b46c3169899fULL, 0x11813d9c4fc0ca1fULL, 0x1f3c8615aed0c1beULL},
    {"mm-color-class(det)/drop/s3", 0x3374ccb441503a8aULL, 0x4a782964eb372d93ULL, 0xa0faaafbbb82dcb3ULL},
    {"mm-color-class(det)/edge-drop/s3", 0xf4f4bd6a233194b4ULL, 0x4a782964eb372d93ULL, 0xee4ef18ad76600ccULL},
    {"mm-color-class(det)/duplicate/s3", 0xe0407e5e2b84239cULL, 0x4a782964eb372d93ULL, 0xa8822f52514da793ULL},
    {"mm-color-class(det)/delay/s3", 0x213957a72ced3ef2ULL, 0x4a782964eb372d93ULL, 0x7ce9cc9e4fc818b6ULL},
    {"mm-color-class(det)/crash/s3", 0xb2eeef3bae230f96ULL, 0x0ULL, 0x0ULL},
    {"mm-color-class(det)/raw/s3", 0xf61aa5ab58d5e5f5ULL, 0x0ULL, 0x0ULL},
    {"net-raw/drop/s1", 0xed051fefacdc289ULL, 0x761fb60b17f9652aULL, 0x88fea1b967c84febULL},
    {"net-reliable/drop/s1", 0x153cf619300ce66eULL, 0x982821ecefa936c5ULL, 0xe31570b0f7658fc0ULL},
    {"net-capped/drop/s1", 0x90862ffca7faff4fULL, 0xaf67e4283afb6e5ULL, 0xf80dc498ec62e317ULL},
    {"net-raw/edge-drop/s1", 0x6002952d124979bbULL, 0xf0b623b072ba1155ULL, 0x88fea1b967c84febULL},
    {"net-reliable/edge-drop/s1", 0x6e8ce895cc7a0afdULL, 0x982821ecefa936c5ULL, 0x9a0b9f8e70d1f93fULL},
    {"net-capped/edge-drop/s1", 0x1d267c328a2e0499ULL, 0xe18d71f2ab1fd07eULL, 0xdbc2d07a1c0a7165ULL},
    {"net-raw/duplicate/s1", 0x4096b2adf86a2f89ULL, 0x75e6775b13c24b6dULL, 0x88fea1b967c84febULL},
    {"net-reliable/duplicate/s1", 0x9c0bc5021036f86fULL, 0x3278601b4db064ebULL, 0xdfb0421919a056edULL},
    {"net-capped/duplicate/s1", 0xa643b72059c03caULL, 0xf609cba66cd0c277ULL, 0xb595863aaffcf374ULL},
    {"net-raw/delay/s1", 0xd911ba16e5d78ebULL, 0xa20ddaeb82abcbccULL, 0x88fea1b967c84febULL},
    {"net-reliable/delay/s1", 0x6068b58a5674973cULL, 0xc16fcbbf929cbc2ULL, 0xc4d06843ff89be5ULL},
    {"net-capped/delay/s1", 0x869745cd3603ecd4ULL, 0xf9bc0c868c61b80cULL, 0xc73d4bcda739836bULL},
    {"net-raw/crash/s1", 0xf5413b3ce9f51032ULL, 0xd5063b9c95d40b8fULL, 0x88fea1b967c84febULL},
    {"net-reliable/crash/s1", 0xb0f360403a82104dULL, 0xb0e645529f5a7119ULL, 0x167f3ce955c62cf2ULL},
    {"net-capped/crash/s1", 0xd203ea824680c0afULL, 0xbe70b37efb35beULL, 0x559d6ce7edb86af8ULL},
    {"net-raw/drop/s2", 0x96a33a570377a737ULL, 0xbf8f0d6cfa7d15bcULL, 0x3f2f4af6956ba72fULL},
    {"net-reliable/drop/s2", 0x235f13fe51cef650ULL, 0x4a4d1125901247aaULL, 0x8e5b4ecd637244d0ULL},
    {"net-capped/drop/s2", 0x818ffceb6b660797ULL, 0x52ec77d7bdd0ce8aULL, 0x33251e9e63ff29afULL},
    {"net-raw/edge-drop/s2", 0x1f174be1a270fe7ULL, 0xcd15b88b73eee25dULL, 0x3f2f4af6956ba72fULL},
    {"net-reliable/edge-drop/s2", 0xd562cb21aa19c5d4ULL, 0x4a4d1125901247aaULL, 0x48ceaa6d55532557ULL},
    {"net-capped/edge-drop/s2", 0x4e6cd00f47e35e8fULL, 0xa85ec72b2e669a36ULL, 0xee53c93431695dfbULL},
    {"net-raw/duplicate/s2", 0xf33ed51a7fbc0d0bULL, 0x13607ad1a404b917ULL, 0x3f2f4af6956ba72fULL},
    {"net-reliable/duplicate/s2", 0xdbee07c7b50dc33fULL, 0xa70a5ff97fe430e5ULL, 0x726b74b94769fad2ULL},
    {"net-capped/duplicate/s2", 0x7654fc3dd678c4aeULL, 0x1b0fa55f858a0ef4ULL, 0x75ca69a5b93a75a5ULL},
    {"net-raw/delay/s2", 0x5028591e4ac4600aULL, 0x7a7ee396e70c4375ULL, 0x3f2f4af6956ba72fULL},
    {"net-reliable/delay/s2", 0xa1cb78f65d4af47eULL, 0x1686655772ef6508ULL, 0xdc5784185ae28834ULL},
    {"net-capped/delay/s2", 0x431537d917cdb48cULL, 0xfd2459e71313da7bULL, 0xf43a6fad4c6c929dULL},
    {"net-raw/crash/s2", 0xea98aa8860b37fc4ULL, 0x3c78261d9ee1ccc8ULL, 0x3f2f4af6956ba72fULL},
    {"net-reliable/crash/s2", 0x352116900cc99c2cULL, 0x9e13971d785280eeULL, 0x1779ea117b3863bcULL},
    {"net-capped/crash/s2", 0x92d852b48fe4b1adULL, 0xdf947af2f8748e2fULL, 0x98f1ea0de0d0f48ULL},
    {"net-raw/drop/s3", 0xdb2661cf22b56f5aULL, 0x91282f9ac1015f2dULL, 0xcbe303b5592d2ba9ULL},
    {"net-reliable/drop/s3", 0xb0431e9e8a87fce1ULL, 0x2127d3505a44f1bbULL, 0x2ab4a91b25c7cd63ULL},
    {"net-capped/drop/s3", 0x63d5042ce8f7a606ULL, 0x9735347c3b032bacULL, 0x480c04ea9089fb2dULL},
    {"net-raw/edge-drop/s3", 0xdfb5e24b929576a8ULL, 0x8cc8c7b5de7747a9ULL, 0xcbe303b5592d2ba9ULL},
    {"net-reliable/edge-drop/s3", 0x5098303a5dfdf02ULL, 0x2127d3505a44f1bbULL, 0xd0a0a5f053904c17ULL},
    {"net-capped/edge-drop/s3", 0x67cc637cef9e97d2ULL, 0x4bc07e433329dc33ULL, 0x74276a94fe0afd51ULL},
    {"net-raw/duplicate/s3", 0xf0e71543bb611eeeULL, 0x51487f0ef573162cULL, 0xcbe303b5592d2ba9ULL},
    {"net-reliable/duplicate/s3", 0xe4c286e0cbab98cbULL, 0x37f336a9045f147cULL, 0xd2f9270e2991ed86ULL},
    {"net-capped/duplicate/s3", 0x70ba4718bc9592e2ULL, 0x6804723841f3519ULL, 0x6679e980ac5f29d9ULL},
    {"net-raw/delay/s3", 0xd0e4897bc0aa8da7ULL, 0x1b1c5fa424ac3b40ULL, 0xcbe303b5592d2ba9ULL},
    {"net-reliable/delay/s3", 0x2e190f9283eb46f3ULL, 0xe45ec66f4fee679cULL, 0x58ec5c0db9a52083ULL},
    {"net-capped/delay/s3", 0x3ec448efea6a49e4ULL, 0xc2ea8e921ce46756ULL, 0x8624fbce5dcc6bf1ULL},
    {"net-raw/crash/s3", 0x25dd6d7c8bc4b1d5ULL, 0xbae5f8e7bb9f9cd3ULL, 0xcbe303b5592d2ba9ULL},
    {"net-reliable/crash/s3", 0x74b6388319bdfff4ULL, 0x6710c1247f3eb1e9ULL, 0x6a3b95c251c35c34ULL},
    {"net-capped/crash/s3", 0xb06b869933a8ed4eULL, 0x8d3f77ce5972c52dULL, 0x7476b743cb1af3daULL},
};
// clang-format on

TEST(FaultGolden, LossyExecutionsMatchTheRecordedDigests) {
  std::vector<Row> rows;
  add_asm_rows(rows);
  add_rand_asm_rows(rows);
  add_mm_rows(rows);
  add_network_rows(rows);
  ASSERT_EQ(rows.size(), 3u * 5 * 2 + 3u * 4 * 6 + 3u * 5 * 3);
  if (rows == kGolden) return;
  std::string table;
  for (const Row& r : rows) table += format_row(r) + "\n";
  ADD_FAILURE() << "lossy executions differ from the recorded table ("
                << kGolden.size() << " rows recorded); as computed:\n"
                << table;
}

}  // namespace
}  // namespace dasm
