// Distributed maximal matching, protocol by protocol: runs all four
// subroutines of the mm/ layer on the same communication graph, compares
// their cost profiles, and uses the simulator's trace facility to print
// the first rounds of the Israeli–Itai execution message by message —
// a view of what actually crosses the wire in Algorithm 4.
//
//   matching_protocols [--n 64] [--d 6] [--seed 2] [--trace-rounds 2]
#include <iostream>

#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dasm;
  const Cli cli(argc, argv);
  const NodeId n = static_cast<NodeId>(cli.get_int("n", 64));
  const NodeId d = static_cast<NodeId>(cli.get_int("d", 6));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 2));
  const auto trace_rounds = cli.get_int("trace-rounds", 2);

  const Instance inst = gen::regular_bipartite(n, d, seed);
  const Graph& g = inst.graph().graph();
  std::vector<bool> is_left(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < inst.n_men(); ++v) {
    is_left[static_cast<std::size_t>(v)] = true;
  }
  std::cout << "graph: " << d << "-regular bipartite, " << g.node_count()
            << " vertices, " << g.edge_count() << " edges\n\n";

  Table table({"protocol", "matched", "iterations", "rounds", "messages",
               "bits", "maximal"});
  auto add_row = [&](const char* name, const mm::RunResult& r) {
    table.add_row({name, Table::num(r.matching.size()),
                   Table::num((long long)r.iterations_executed),
                   Table::num(r.net.executed_rounds),
                   Table::num(r.net.messages), Table::num(r.net.bits),
                   r.maximal ? "yes" : "no"});
  };

  for (const auto backend :
       {mm::Backend::kPointerGreedy, mm::Backend::kIsraeliItai,
        mm::Backend::kRandomPriority, mm::Backend::kColorClass}) {
    mm::RunConfig c;
    c.backend = backend;
    c.seed = seed;
    add_row(mm::to_string(backend), mm::run_maximal_matching(g, is_left, c));
  }
  table.print(std::cout);

  // Wire-level view of Israeli-Itai's first MatchingRound(s), via the
  // simulator's trace recorder on a tiny instance.
  std::cout << "\n--- Israeli-Itai on the wire (8 vertices, first "
            << trace_rounds << " MatchingRounds) ---\n";
  const Instance tiny = gen::regular_bipartite(4, 2, seed);
  const Graph& tg = tiny.graph().graph();
  mm::RunConfig trace_config;
  trace_config.backend = mm::Backend::kIsraeliItai;
  trace_config.seed = seed;
  trace_config.max_iterations = static_cast<int>(trace_rounds);
  trace_config.trace_events = 4096;
  const mm::RunResult traced = mm::run_maximal_matching(tg, {}, trace_config);
  Round last_round = -1;
  static const char* kStepName[] = {"pick", "keep", "choose", "resolve"};
  for (const TraceEvent& e : traced.trace) {
    if (e.round != last_round) {
      std::cout << "round " << e.round << " ("
                << kStepName[e.round % 4] << "):\n";
      last_round = e.round;
    }
    std::cout << "  " << e.from << " -> " << e.to << "  "
              << to_debug_string(e.msg) << "\n";
  }
  std::cout << "matched so far: ";
  for (NodeId v = 0; v < tg.node_count(); ++v) {
    const NodeId p = traced.matching.partner_of(v);
    if (p != kNoNode && v < p) std::cout << "(" << v << "," << p << ") ";
  }
  std::cout << "\n";
  return 0;
}
