// E9 — §1 comparison: exact distributed Gale–Shapley needs Theta(n)
// sweeps on the displacement-chain family (and Theta~(n^2) in general),
// while the (1 - eps) guarantee is reached under a round budget that does
// not grow with n. This is the paper's core trade: approximation buys
// round complexity.
//
// Both tables run their independent cells on a SweepRunner (DESIGN.md §6;
// --threads N) — the per-n chain cells in one grid,
// the uniform (n, seed) cells in another — and aggregate in index order,
// so the printed tables are identical at every thread count.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "par/sweep.hpp"
#include "stable/blocking.hpp"
#include "stable/distributed_gs.hpp"
#include "util/stats.hpp"

namespace {

// Smallest ASM round budget (by doubling) under which the output already
// meets the eps*|E| blocking budget.
std::int64_t rounds_to_guarantee(const dasm::Instance& inst, double eps) {
  using namespace dasm;
  for (std::int64_t budget = 8;; budget *= 2) {
    core::AsmParams params;
    params.epsilon = eps;
    params.max_rounds = budget;
    const auto r = core::run_asm(inst, params);
    if (static_cast<double>(count_blocking_pairs(inst, r.matching)) <=
        eps * static_cast<double>(inst.edge_count())) {
      return r.net.executed_rounds;
    }
    if (budget > 1'000'000) return -1;
  }
}

struct ChainResult {
  std::int64_t gs_rounds = 0;
  std::int64_t asm_rounds = 0;
};

struct UniformResult {
  double gs_exec = 0;
  double asm_exec = 0;
  double sweeps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dasm;
  bench::print_header(
      "E9",
      "Sec. 1: exact distributed GS needs polynomially many rounds in the "
      "worst case; ASM meets its (1-eps) guarantee in rounds that do not "
      "scale with n",
      "GS rounds grow ~n on the chain; ASM-to-guarantee stays flat");

  const double eps = 0.25;
  std::vector<NodeId> sizes{64, 128, 256, 512};
  if (bench::large_mode()) sizes.push_back(1024);

  par::SweepRunner sweep(bench::parse_options(argc, argv).threads);

  std::cout << "adversarial displacement chain:\n";
  const auto chain_cells = sweep.map<ChainResult>(
      static_cast<std::int64_t>(sizes.size()), [&](std::int64_t i) {
        const Instance inst =
            gen::gs_displacement_chain(sizes[static_cast<std::size_t>(i)]);
        ChainResult out;
        out.gs_rounds = distributed_gale_shapley(inst).net.executed_rounds;
        out.asm_rounds = rounds_to_guarantee(inst, eps);
        return out;
      });
  Table chain({"n", "GS rounds(exact)", "ASM rounds(to eps-guarantee)",
               "GS/ASM"});
  std::vector<double> xs;
  std::vector<double> gs_rounds;
  std::vector<double> asm_rounds;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const ChainResult& r = chain_cells[i];
    xs.push_back(static_cast<double>(sizes[i]));
    gs_rounds.push_back(static_cast<double>(r.gs_rounds));
    asm_rounds.push_back(static_cast<double>(r.asm_rounds));
    chain.add_row({Table::num((long long)sizes[i]),
                   Table::num(r.gs_rounds),
                   Table::num((long long)r.asm_rounds),
                   Table::num(gs_rounds.back() / asm_rounds.back(), 1)});
  }
  chain.print(std::cout);
  const LinearFit gs_fit = loglog_fit(xs, gs_rounds);
  const LinearFit asm_fit = loglog_fit(xs, asm_rounds);
  std::cout << "\nGS rounds ~ n^" << gs_fit.slope << ", ASM-to-guarantee ~ n^"
            << asm_fit.slope << "\n\n";

  std::cout << "uniform complete preferences (typical case):\n";
  const std::vector<NodeId> uniform_sizes{64, 128, 256};
  const int uniform_seeds = 3;
  const auto uniform_cells = sweep.map<UniformResult>(
      static_cast<std::int64_t>(uniform_sizes.size()) * uniform_seeds,
      [&](std::int64_t i) {
        const NodeId n = uniform_sizes[static_cast<std::size_t>(
            i / uniform_seeds)];
        const int s = static_cast<int>(i % uniform_seeds) + 1;
        const Instance inst =
            bench::make_family("complete", n, static_cast<std::uint64_t>(s));
        const auto dgs = distributed_gale_shapley(inst);
        core::AsmParams params;
        params.epsilon = eps;
        const auto r = core::run_asm(inst, params);
        UniformResult out;
        out.gs_exec = static_cast<double>(dgs.net.executed_rounds);
        out.asm_exec = static_cast<double>(r.net.executed_rounds);
        out.sweeps = static_cast<double>(dgs.sweeps);
        return out;
      });
  Table uniform({"n", "GS rounds(exact)", "ASM rounds(exec, full run)",
                 "GS sweeps"});
  for (std::size_t ni = 0; ni < uniform_sizes.size(); ++ni) {
    Summary gs_sum;
    Summary asm_sum;
    Summary sweeps;
    for (int s = 1; s <= uniform_seeds; ++s) {
      const UniformResult& r =
          uniform_cells[ni * static_cast<std::size_t>(uniform_seeds) +
                        static_cast<std::size_t>(s - 1)];
      gs_sum.add(r.gs_exec);
      sweeps.add(r.sweeps);
      asm_sum.add(r.asm_exec);
    }
    uniform.add_row({Table::num((long long)uniform_sizes[ni]),
                     Table::num(gs_sum.mean(), 1),
                     Table::num(asm_sum.mean(), 1),
                     Table::num(sweeps.mean(), 1)});
  }
  uniform.print(std::cout);

  const bool shape_ok = gs_fit.slope > 0.8 && asm_fit.slope < 0.3;
  std::cout << '\n';
  bench::print_verdict(shape_ok,
                       "exact GS rounds grow ~linearly on the chain while "
                       "ASM's rounds-to-guarantee stay essentially flat");
  return shape_ok ? 0 : 1;
}
