// Convergence trace: watches ASM's inner loop resolve an instance,
// printing the good/bad/matched evolution per QuantileMatch call — the
// quantities Lemma 6 reasons about.
//
//   convergence_trace [--n 128] [--family complete|master|incomplete|chain]
//                     [--eps 0.25] [--seed 1]
#include <iostream>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "obs/trace.hpp"
#include "stable/blocking.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dasm;
  const Cli cli(argc, argv);
  const NodeId n = static_cast<NodeId>(cli.get_int("n", 128));
  const double eps = cli.get_double("eps", 0.25);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string family = cli.get("family", "complete");

  const Instance inst = [&]() -> Instance {
    if (family == "master") return gen::master_list(n, n, seed);
    if (family == "incomplete")
      return gen::incomplete_uniform(n, n, 0.2, seed);
    if (family == "chain") return gen::gs_displacement_chain(n);
    return gen::complete_uniform(n, seed);
  }();

  obs::MemorySink sink;
  core::AsmParams params;
  params.epsilon = eps;
  params.obs_sink = &sink;
  const auto r = core::run_asm(inst, params);
  const auto rows = obs::convergence_rows(sink);

  std::cout << "family=" << family << " n=" << n << " eps=" << eps
            << " k=" << r.schedule.k << " (outer x inner = "
            << r.schedule.outer << " x " << r.schedule.inner << ")\n\n";

  Table table({"outer", "QM#", "active men", "bad active", "bad frac",
               "matched"});
  // Print a geometric subsample so long traces stay readable.
  std::size_t next = 1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool last = i + 1 == rows.size();
    if (i + 1 != next && !last) continue;
    next = next * 2;
    const obs::ConvergenceRow& row = rows[i];
    const std::int64_t active = row.value(obs::Counter::kActiveMen);
    const std::int64_t bad = row.value(obs::Counter::kBadActiveMen);
    // QM# counts QuantileMatch calls from 1; span indices count from 0.
    table.add_row(
        {Table::num(row.outer), Table::num(row.inner + 1), Table::num(active),
         Table::num(bad),
         Table::num(active > 0 ? static_cast<double>(bad) /
                                     static_cast<double>(active)
                               : 0.0,
                    4),
         Table::num(row.value(obs::Counter::kMatchedPairs))});
  }
  table.print(std::cout);

  std::cout << "\nfinal: " << r.matching.size() << " matched, "
            << r.good_count << " good / " << r.bad_count << " bad men, "
            << count_blocking_pairs(inst, r.matching) << " blocking pairs "
            << "(budget " << eps * static_cast<double>(inst.edge_count())
            << "), " << r.net.executed_rounds << " rounds, "
            << r.net.messages << " messages\n";
  return 0;
}
