// E2 — Theorem 4: deterministic ASM needs O(eps^-3 log^5 n) communication
// rounds. We report (a) the executed rounds of the engine (with provably
// silent phases skipped), (b) the fixed-schedule round formula, and
// (c) the HKP-normalized theory bound, and fit the growth exponent of the
// executed rounds: it must be far below any polynomial in n.
//
// The (family, n, seed) grid runs as independent cells on a SweepRunner
// (DESIGN.md §6; --threads N); the per-row Summary
// streams consume the cell results in index order, so the printed tables
// are identical at every thread count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "par/sweep.hpp"
#include "stable/blocking.hpp"
#include "util/stats.hpp"

namespace {

struct Cell {
  std::string family;
  dasm::NodeId n = 0;
  int seed = 0;
};

struct CellResult {
  double exec = 0;
  double msgs = 0;
  double mm_rounds = 0;
  std::int64_t sched = 0;
  std::int64_t hkp = 0;
  bool ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dasm;
  bench::print_header(
      "E2", "Theorem 4: ASM runs in O(eps^-3 log^5 n) rounds",
      "executed rounds grow polylogarithmically: log-log slope << 1");

  const int seeds = bench::large_mode() ? 10 : 6;
  std::vector<NodeId> sizes{64, 128, 256, 512, 1024};
  if (bench::large_mode()) sizes.push_back(2048);

  // Row-major (family, n) with seeds innermost — the exact order of the
  // old serial nested loops.
  std::vector<Cell> cells;
  for (const std::string family : {"complete", "regular"}) {
    for (const NodeId n : sizes) {
      // Complete instances hold Theta(n^2) preference state; cap them.
      if (family == "complete" && n > 1024) continue;
      for (int s = 1; s <= seeds; ++s) cells.push_back({family, n, s});
    }
  }

  const bench::Options opts = bench::parse_options(argc, argv);
  par::SweepRunner sweep(opts.threads);
  const auto results =
      sweep.map<CellResult>(static_cast<std::int64_t>(cells.size()),
                            [&](std::int64_t i) {
        const Cell& cell = cells[static_cast<std::size_t>(i)];
        const Instance inst = bench::make_family(
            cell.family, cell.n, static_cast<std::uint64_t>(cell.seed));
        core::AsmParams params;
        params.epsilon = 0.25;
        const auto r = core::run_asm(inst, params);
        CellResult out;
        out.exec = static_cast<double>(r.net.executed_rounds);
        out.msgs = static_cast<double>(r.net.messages);
        out.mm_rounds = static_cast<double>(r.mm_rounds_executed);
        out.sched = r.net.scheduled_rounds;
        out.hkp = r.schedule.hkp_normalized_rounds(cell.n);
        out.ok = static_cast<double>(count_blocking_pairs(inst, r.matching)) <=
                 0.25 * static_cast<double>(inst.edge_count());
        return out;
      });

  Table table({"family", "n", "rounds(exec)", "rounds(sched)",
               "rounds(HKP-bound)", "messages", "mm_rounds", "blocking_ok"});
  std::vector<double> xs;
  std::vector<double> ys;
  bool quality_ok = true;
  std::size_t next = 0;
  for (const std::string family : {"complete", "regular"}) {
    for (const NodeId n : sizes) {
      if (family == "complete" && n > 1024) continue;
      Summary exec;
      Summary msgs;
      Summary mm_rounds;
      std::int64_t sched = 0;
      std::int64_t hkp = 0;
      for (int s = 1; s <= seeds; ++s) {
        const CellResult& r = results[next++];
        exec.add(r.exec);
        msgs.add(r.msgs);
        mm_rounds.add(r.mm_rounds);
        sched = r.sched;
        hkp = r.hkp;
        quality_ok = quality_ok && r.ok;
      }
      if (family == "complete") {
        xs.push_back(static_cast<double>(n));
        ys.push_back(exec.mean());
      }
      table.add_row({family, Table::num((long long)n),
                     Table::num(exec.mean(), 1), Table::num((long long)sched),
                     Table::num((long long)hkp), Table::num(msgs.mean(), 0),
                     Table::num(mm_rounds.mean(), 1),
                     quality_ok ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  const LinearFit fit = loglog_fit(xs, ys);
  std::cout << "\nexecuted-rounds growth: rounds ~ n^" << fit.slope
            << " (log-log fit, R^2=" << fit.r_squared << ")\n\n";

  if (!opts.trace_out.empty()) {
    // One representative cell of the grid above (complete, n=256, seed 1):
    // its per-inner-iteration convergence table is the curve EXPERIMENTS.md
    // §E2 shows via dasm-trace.
    core::AsmParams params;
    params.epsilon = 0.25;
    bench::export_asm_trace(opts.trace_out,
                            bench::make_family("complete", 256, 1), params);
  }
  const bool shape_ok = fit.slope < 0.6 && quality_ok;
  bench::print_verdict(shape_ok,
                       "sub-polynomial executed-round growth (exponent < 0.6) "
                       "with the Theorem-3 guarantee intact");
  return shape_ok ? 0 : 1;
}
