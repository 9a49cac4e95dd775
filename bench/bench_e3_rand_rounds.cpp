// E3 — Theorem 5: RandASM finds a (1 - eps)-stable matching with
// probability >= 1 - delta in O(eps^-3 log^2(n / (delta eps^3))) rounds.
// We measure the success rate over seeds and the growth of both the fixed
// schedule (the theory bound, ~log^2 n) and the executed rounds.
//
// The (n, seed) grid runs as independent cells on a SweepRunner
// (DESIGN.md §6; --threads N); aggregation consumes the cells in
// index order, so the printed tables are identical at every thread count.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/rand_asm.hpp"
#include "par/sweep.hpp"
#include "stable/blocking.hpp"
#include "util/stats.hpp"

namespace {

struct CellResult {
  double exec = 0;
  double good_pct = 0;
  std::int64_t sched = 0;
  int budget = 0;
  bool ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dasm;
  bench::print_header(
      "E3",
      "Theorem 5: RandASM is (1-eps)-stable w.p. >= 1-delta in "
      "O(eps^-3 log^2(n/(delta eps^3))) rounds",
      "scheduled rounds grow ~log^2 n; success rate ~100%");

  const int seeds = bench::large_mode() ? 8 : 5;
  std::vector<NodeId> sizes{64, 128, 256, 512};
  if (bench::large_mode()) sizes.push_back(1024);

  par::SweepRunner sweep(bench::parse_options(argc, argv).threads);
  const auto cell_count =
      static_cast<std::int64_t>(sizes.size()) * seeds;  // n-major, seed minor
  const auto results = sweep.map<CellResult>(cell_count, [&](std::int64_t i) {
    const NodeId n = sizes[static_cast<std::size_t>(i / seeds)];
    const int s = static_cast<int>(i % seeds) + 1;
    const Instance inst =
        bench::make_family("complete", n, static_cast<std::uint64_t>(s));
    core::RandAsmParams params;
    params.epsilon = 0.25;
    params.failure_prob = 0.05;
    params.seed = static_cast<std::uint64_t>(s) * 101 + 7;
    const auto r = core::run_rand_asm(inst, params);
    validate_matching(inst, r.matching);
    CellResult out;
    out.exec = static_cast<double>(r.net.executed_rounds);
    out.good_pct = 100.0 * static_cast<double>(r.good_count) /
                   static_cast<double>(inst.n_men());
    out.sched = r.net.scheduled_rounds;
    out.budget = r.schedule.mm_budget_iterations;
    out.ok = static_cast<double>(count_blocking_pairs(inst, r.matching)) <=
             0.25 * static_cast<double>(inst.edge_count());
    return out;
  });

  Table table({"n", "mm_budget", "rounds(exec)", "rounds(sched)",
               "sched/log2(n)^2", "success", "good_men%"});
  std::vector<double> xs;
  std::vector<double> normalized;
  int failures = 0;
  int total = 0;
  for (std::size_t ni = 0; ni < sizes.size(); ++ni) {
    const NodeId n = sizes[ni];
    Summary exec;
    Summary good;
    std::int64_t sched = 0;
    int budget = 0;
    int ok_count = 0;
    for (int s = 1; s <= seeds; ++s) {
      const CellResult& r =
          results[ni * static_cast<std::size_t>(seeds) +
                  static_cast<std::size_t>(s - 1)];
      exec.add(r.exec);
      good.add(r.good_pct);
      sched = r.sched;
      budget = r.budget;
      ++total;
      if (r.ok) {
        ++ok_count;
      } else {
        ++failures;
      }
    }
    const double log2n = std::log2(static_cast<double>(n));
    xs.push_back(static_cast<double>(n));
    normalized.push_back(static_cast<double>(sched) / (log2n * log2n));
    table.add_row(
        {Table::num((long long)n), Table::num((long long)budget),
         Table::num(exec.mean(), 1), Table::num((long long)sched),
         Table::num(normalized.back(), 0),
         Table::num((long long)ok_count) + "/" + Table::num((long long)seeds),
         Table::num(good.mean(), 1)});
  }
  table.print(std::cout);

  // Theorem-5 shape: scheduled / log^2 n should be near-constant — its
  // spread across a 8-16x range of n stays within a small factor.
  double lo = normalized.front();
  double hi = normalized.front();
  for (double v : normalized) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const bool shape_ok = hi / lo < 3.0 && failures == 0;
  std::cout << "\nscheduled/log^2(n) spread: " << hi / lo
            << "x across the sweep; guarantee failures: " << failures << "/"
            << total << "\n\n";
  bench::print_verdict(shape_ok,
                       "scheduled rounds track log^2 n and every run met "
                       "the eps*|E| budget");
  return shape_ok ? 0 : 1;
}
