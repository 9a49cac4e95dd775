// A8 — fault resilience (DESIGN.md §8): ASM on a lossy network, with the
// reliability sublayer (per-message acks + retransmit-after-k) absorbing
// drops. Floréen et al. show almost-stability degrades gracefully with
// fewer effective propose–accept rounds; with retransmission the claim is
// sharper: message loss costs extra *wire* rounds, never quality — the
// matching is identical to the fault-free run, so every cell must end
// (1 - eps)-stable at any loss rate.
//
// The sweep charts rounds-to-(1-eps)-stability across loss rate x eps
// (x seeds): executed wire rounds grow with the loss rate (each protocol
// round ends only when all its payloads are acked or dead) while the
// blocking-pair count stays within eps * |E| throughout. Cells run
// independently on a SweepRunner and aggregate in index order, so tables
// are identical at every --threads value.
//
// A third verdict gates the reliability sublayer's cost: after a warm-up,
// 64 rounds of a reliable network under 5% loss perform no heap
// allocation (A6's check of the fault-free arenas, extended to the payload
// window and the wire ring), counted by a replaced global operator new.
// A fourth gates whole runs on the thread's warm run context (DESIGN.md
// §13): after one warm-up run, a run of each of the serve benchmark's
// cold request kinds allocates at most 16 blocks, whatever n or the round
// count is: the returned result's own vectors.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "mm/runner.hpp"
#include "par/sweep.hpp"
#include "stable/blocking.hpp"
#include "util/table.hpp"

// Allocation counter: every path to the heap in this binary goes through
// these operators, so a delta of zero over a window proves the network did
// not touch the allocator.
namespace {
std::atomic<long long> g_heap_allocs{0};
}

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dasm;

// One saturated round: every directed edge of `g` carries a message.
std::int64_t saturate_round(Network& net, const Graph& g, int round) {
  net.begin_round();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      net.send(u, v, Message{MsgType::kPropose, u, round % 997 + 1});
    }
  }
  net.end_round();
  std::int64_t checksum = 0;
  for (const NodeId v : net.receivers()) {
    for (const Envelope& e : net.inbox(v)) checksum += e.msg.a + e.from;
  }
  return checksum;
}

// Heap allocations of one warm run: `run` once to warm the thread's run
// context, then the most any of three further runs makes.
long long warm_run_allocations(const std::function<void()>& run) {
  run();
  long long most = 0;
  for (int i = 0; i < 3; ++i) {
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    run();
    most = std::max(most,
                    g_heap_allocs.load(std::memory_order_relaxed) - before);
  }
  return most;
}

struct CellResult {
  double wire_rounds = 0;       // executed rounds incl. retransmit rounds
  double retransmitted = 0;
  double dropped = 0;
  double duplicated = 0;
  double blocking_pairs = 0;
  double edges = 0;
  bool stable_enough = false;   // blocking pairs <= eps * |E|
  bool same_as_fault_free = false;
};

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "A8",
      "Reliability sublayer: ASM under message loss reaches the same "
      "(1-eps)-stable matching, paying in wire rounds instead of quality",
      "wire rounds grow with loss rate; blocking pairs stay <= eps*|E| and "
      "the matching equals the fault-free run at every loss rate");

  const std::vector<double> losses{0.0, 0.05, 0.10, 0.20};
  const std::vector<double> epsilons{0.5, 0.25, 0.125};
  const int seeds = bench::large_mode() ? 5 : 3;
  const NodeId n = bench::large_mode() ? 96 : 48;

  par::SweepRunner sweep(bench::parse_options(argc, argv).threads);
  const auto cells = static_cast<std::int64_t>(losses.size()) *
                     static_cast<std::int64_t>(epsilons.size()) * seeds;
  const auto results = sweep.map<CellResult>(cells, [&](std::int64_t i) {
    const auto li = static_cast<std::size_t>(
        i / (static_cast<std::int64_t>(epsilons.size()) * seeds));
    const auto ei = static_cast<std::size_t>(
        (i / seeds) % static_cast<std::int64_t>(epsilons.size()));
    const int s = static_cast<int>(i % seeds) + 1;
    const Instance inst =
        bench::make_family("complete", n, static_cast<std::uint64_t>(s));

    core::AsmParams params;
    params.epsilon = epsilons[ei];
    params.seed = static_cast<std::uint64_t>(s) * 977 + 11;
    // Fault-free baseline: the matching every faulty-but-reliable run
    // must reproduce.
    const auto baseline = core::run_asm(inst, params);

    params.fault_plan.seed = static_cast<std::uint64_t>(s) * 31 + 5;
    params.fault_plan.drop = losses[li];
    params.retransmit_after = 2;
    const auto r = core::run_asm(inst, params);
    validate_matching(inst, r.matching);

    CellResult out;
    out.wire_rounds = static_cast<double>(r.net.executed_rounds);
    out.retransmitted = static_cast<double>(r.net.retransmitted);
    out.dropped = static_cast<double>(r.net.dropped);
    out.duplicated = static_cast<double>(r.net.duplicated);
    out.blocking_pairs =
        static_cast<double>(count_blocking_pairs(inst, r.matching));
    out.edges = static_cast<double>(inst.edge_count());
    out.stable_enough =
        out.blocking_pairs <= epsilons[ei] * out.edges;
    out.same_as_fault_free = r.matching == baseline.matching;
    return out;
  });

  Table table({"loss", "eps", "wire rounds", "rtx", "dropped", "bp/(eps|E|)",
               "(1-eps)-stable", "matches fault-free"});
  bool all_stable = true;
  bool all_same = true;
  for (std::size_t li = 0; li < losses.size(); ++li) {
    for (std::size_t ei = 0; ei < epsilons.size(); ++ei) {
      double rounds = 0;
      double rtx = 0;
      double dropped = 0;
      double bp_ratio = 0;
      bool stable = true;
      bool same = true;
      for (int s = 0; s < seeds; ++s) {
        const auto& c =
            results[(li * epsilons.size() + ei) * static_cast<std::size_t>(seeds) +
                    static_cast<std::size_t>(s)];
        rounds += c.wire_rounds;
        rtx += c.retransmitted;
        dropped += c.dropped;
        bp_ratio += c.edges > 0 ? c.blocking_pairs /
                                      (epsilons[ei] * c.edges)
                                : 0.0;
        stable = stable && c.stable_enough;
        same = same && c.same_as_fault_free;
      }
      const double inv = 1.0 / static_cast<double>(seeds);
      table.add_row({Table::num(losses[li], 2), Table::num(epsilons[ei], 3),
                     Table::num(rounds * inv, 1), Table::num(rtx * inv, 1),
                     Table::num(dropped * inv, 1),
                     Table::num(bp_ratio * inv, 3), stable ? "yes" : "NO",
                     same ? "yes" : "NO"});
      all_stable = all_stable && stable;
      all_same = all_same && same;
    }
  }
  table.print(std::cout);
  std::cout << "\n";

  // Steady-state allocations of the reliability sublayer, after the sweep
  // so no worker allocates meanwhile. Saturated rounds are its worst case:
  // every directed edge opens a payload, 5% of copies and acks are lost,
  // and a payload whose copies or acks keep getting lost pins the window.
  const Instance alloc_inst = bench::make_family("complete", n, 1);
  const Graph& alloc_graph = alloc_inst.graph().graph();
  Network reliable(alloc_graph);
  FaultPlan lossy;
  lossy.seed = 8;
  lossy.drop = 0.05;
  reliable.set_fault_plan(lossy);
  reliable.set_reliable_transport(/*retransmit_after=*/2);
  std::int64_t checksum = 0;
  for (int r = 0; r < 64; ++r) {
    checksum += saturate_round(reliable, alloc_graph, r);
  }
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int r = 64; r < 128; ++r) {
    checksum += saturate_round(reliable, alloc_graph, r);
  }
  const long long allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  std::cout << "reliable network, drop 0.05, " << alloc_graph.node_count()
            << " nodes saturated: " << allocs
            << " heap allocations over 64 rounds ("
            << reliable.stats().executed_rounds << " wire rounds in all, "
            << reliable.stats().retransmitted << " retransmissions, checksum "
            << checksum << ")\n\n";
  const bool zero_alloc = allocs == 0;

  // Whole warm runs of the serve benchmark's cold request kinds
  // (servebench/corpus.txt's k96, i768 and k64), fault-free and lossy.
  const Instance k96 = bench::make_family("complete", 96, 3);
  const Instance i768 = bench::make_family("incomplete", 768, 4);
  const Instance k64 = bench::make_family("complete", 64, 2);
  core::AsmParams asm_params;
  asm_params.epsilon = 0.25;
  asm_params.seed = 5;
  core::RandAsmParams rand_params;
  rand_params.epsilon = 0.25;
  rand_params.seed = 5;
  mm::RunConfig mm_config;
  mm_config.backend = mm::Backend::kIsraeliItai;
  mm_config.seed = 5;
  const Graph& k96_graph = k96.graph().graph();
  std::vector<bool> k96_left(static_cast<std::size_t>(k96_graph.node_count()));
  for (NodeId m = 0; m < k96.n_men(); ++m) {
    k96_left[static_cast<std::size_t>(m)] = true;
  }
  core::AsmParams lossy_params = asm_params;
  lossy_params.fault_plan.drop = 0.05;
  lossy_params.retransmit_after = 2;
  struct WarmRow {
    std::string name;
    std::function<void()> run;
  };
  const std::vector<WarmRow> warm_rows = {
      {"run_asm k96", [&] { core::run_asm(k96, asm_params); }},
      {"run_rand_asm i768", [&] { core::run_rand_asm(i768, rand_params); }},
      {"run_maximal_matching ii k96",
       [&] { mm::run_maximal_matching(k96_graph, k96_left, mm_config); }},
      {"run_asm k64 drop 0.05 retransmit-after 2",
       [&] { core::run_asm(k64, lossy_params); }},
  };
  constexpr long long kWarmRunBudget = 16;
  Table warm_table({"warm run", "heap allocations"});
  bool warm_within_budget = true;
  for (const WarmRow& row : warm_rows) {
    const long long n_allocs = warm_run_allocations(row.run);
    warm_table.add_row({row.name, std::to_string(n_allocs)});
    warm_within_budget = warm_within_budget && n_allocs <= kWarmRunBudget;
  }
  warm_table.print(std::cout);
  std::cout << "\n";

  bench::print_verdict(all_stable,
                       "every cell is (1-eps)-stable despite message loss");
  bench::print_verdict(all_same,
                       "reliable faulty runs reproduce the fault-free "
                       "matching exactly");
  bench::print_verdict(zero_alloc,
                       "steady-state reliable rounds under loss allocate "
                       "nothing");
  bench::print_verdict(warm_within_budget,
                       "a warm run allocates at most 16 blocks, only its "
                       "result");
  return (all_stable && all_same && zero_alloc && warm_within_budget) ? 0
                                                                     : 1;
}
