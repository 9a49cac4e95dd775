// A7 — scaling of the one parallel layer (DESIGN.md §6), and the contract
// that makes it safe: every thread count produces the same bits.
//
// Full run_asm executions run as independent (instance, seed) sweep cells
// on a SweepRunner, measuring cells/sec at each thread count. The per-cell
// outputs and the NetStats merged across cells with operator+= must be
// identical at every thread count.
//
// A single run is serial. Stepping the players of one CONGEST round on a
// thread pool measured slower than serial on every instance the service
// runs (DESIGN.md §6 has the table) and was removed.
//
// The speedup verdict is gated on hardware concurrency: thread counts
// above the core count still verify bit-identity (they just timeslice),
// but their throughput says nothing, so hosts with fewer than 4 hardware
// threads only check determinism.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "mm/runner.hpp"
#include "par/sweep.hpp"
#include "util/table.hpp"

namespace dasm {
namespace {

// d-regular circulant: u ~ u +- 1..d/2 (mod n). Sparse, symmetric.
std::vector<std::vector<NodeId>> circulant(NodeId n, NodeId d) {
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId k = 1; k <= d / 2; ++k) {
      adj[static_cast<std::size_t>(u)].push_back((u + k) % n);
      adj[static_cast<std::size_t>(u)].push_back((u - k + n) % n);
    }
    auto& nb = adj[static_cast<std::size_t>(u)];
    std::sort(nb.begin(), nb.end());
  }
  return adj;
}

struct SweepRun {
  NetStats merged;                     // operator+= over all cells
  std::vector<std::int64_t> cell_sig;  // per-cell matching signature
  double cells_per_sec = 0;
};

// Full run_asm executions as independent sweep cells: `seeds` seeds per
// instance family entry. Cell outputs are aggregated in index order.
SweepRun drive_sweep(int threads, int seeds) {
  struct CellOut {
    NetStats net;
    std::int64_t matching_sig = 0;
  };
  const int families = 2;
  par::SweepRunner sweep(threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = sweep.map<CellOut>(
      static_cast<std::int64_t>(families) * seeds, [&](std::int64_t i) {
        const int family = static_cast<int>(i / seeds);
        const auto seed = static_cast<std::uint64_t>(i % seeds) + 1;
        const Instance inst =
            family == 0 ? gen::complete_uniform(128, seed)
                        : gen::regular_bipartite(512, 16, seed);
        core::AsmParams params;
        params.epsilon = 0.25;
        const auto r = core::run_asm(inst, params);
        CellOut out;
        out.net = r.net;
        for (NodeId v = 0; v < r.matching.node_count(); ++v) {
          out.matching_sig =
              out.matching_sig * 1315423911 + r.matching.partner_of(v) + 2;
        }
        return out;
      });
  const auto t1 = std::chrono::steady_clock::now();
  SweepRun out;
  for (const CellOut& c : cells) {
    out.merged += c.net;
    out.cell_sig.push_back(c.matching_sig);
  }
  out.cells_per_sec = static_cast<double>(cells.size()) /
                      std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace
}  // namespace dasm

// --threads is deliberately not honoured here: the whole point is sweeping
// the fixed thread ladder 1/2/4/8. --trace-out still works (it records a
// standalone MM-runner execution).
int main(int argc, char** argv) {
  using namespace dasm;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "A7",
      "Engine plumbing, not the paper: deterministic batched instance "
      "sweeps",
      "bit-identical results at every thread count; throughput scales with "
      "threads up to the core count");

  const bool large = bench::large_mode();
  const int hw = par::hardware_threads();
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::cout << "hardware concurrency: " << hw << " thread(s)\n\n";

  const int seeds = large ? 10 : 5;
  Table sweeps({"threads", "cells", "cells/s", "speedup", "bit-identical"});
  bool identical = true;
  SweepRun base;
  double sweep_speedup_at_4 = 1.0;
  for (const int threads : thread_counts) {
    const SweepRun run = drive_sweep(threads, seeds);
    if (threads == 1) base = run;
    const bool same =
        run.merged == base.merged && run.cell_sig == base.cell_sig;
    identical = identical && same;
    const double speedup = run.cells_per_sec / base.cells_per_sec;
    if (threads == 4) sweep_speedup_at_4 = speedup;
    sweeps.add_row({Table::num((long long)threads),
                    Table::num((long long)base.cell_sig.size()),
                    Table::num(run.cells_per_sec, 2), Table::num(speedup, 2),
                    same ? "yes" : "NO"});
  }
  sweeps.print(std::cout);
  std::cout << "\n";

  bench::print_verdict(identical,
                       "per-cell matchings and merged sweep NetStats "
                       "bit-identical at 1/2/4/8 threads");
  bool ok = identical;
  if (hw >= 4) {
    const bool scales = sweep_speedup_at_4 >= 2.5;
    ok = ok && scales;
    bench::print_verdict(scales,
                         "sweep reaches >= 2.5x cells/sec at 4 threads");
  } else {
    std::cout << "[SKIPPED]  the speedup verdict needs >= 4 hardware threads "
                 "(this host has "
              << hw << "); determinism was still verified at every thread "
                       "count\n";
  }
  if (!opts.trace_out.empty()) {
    // An MM-runner trace (kRun > kMmIteration spans + live-node decay).
    obs::MemorySink sink;
    mm::RunConfig config;
    config.backend = mm::Backend::kIsraeliItai;
    config.obs_sink = &sink;
    const NodeId gn = large ? 4096 : 1024;
    const auto adj = circulant(gn, 8);
    std::vector<Edge> edges;
    for (NodeId u = 0; u < gn; ++u) {
      for (const NodeId v : adj[static_cast<std::size_t>(u)]) {
        if (u < v) edges.push_back({u, v});
      }
    }
    const Graph g(gn, edges);
    mm::run_maximal_matching(g, {}, config);
    obs::write_trace_file(sink, opts.trace_out);
    std::cout << "[trace] wrote " << opts.trace_out << " ("
              << sink.events.size() << " events, " << sink.rounds.size()
              << " round samples)\n";
  }
  return ok ? 0 : 1;
}
