// E7 — Lemma 6: after l QuantileMatch calls, at most a (2k/l)-fraction of
// the active men is bad; in particular l = 2 delta^-1 k leaves at most a
// delta-fraction bad. We trace the bad fraction per inner iteration and
// compare it against the lemma's envelope.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dasm;
  bench::print_header(
      "E7",
      "Lemma 6: after l inner iterations at most 2k|A|/l quantile "
      "rejections remain, so the bad fraction is <= 2k/l",
      "measured bad fraction always below the 2k/l envelope and far below "
      "delta at l = 2 delta^-1 k");

  const NodeId n = bench::large_mode() ? 256 : 128;
  const int seeds = 3;

  bool all_ok = true;
  // k = 0 resolves to the paper default (32 at eps = 0.25); the explicit
  // k = 4 sweep makes the 2k/l envelope bind early (l > 8) so the lemma
  // is tested where it has teeth, not only where it is vacuous.
  for (const NodeId k_override : std::vector<NodeId>{0, 4}) {
    for (const std::string family : {"complete", "master", "incomplete"}) {
      Table table({"inner l", "bad/active(mean)", "lemma bound 2k/l", "ok"});
      // Collect the bad-fraction trace of the FIRST outer iteration,
      // where every man is active.
      std::vector<Summary> frac_at;
      NodeId k = 0;
      for (int s = 1; s <= seeds; ++s) {
        const Instance inst =
            bench::make_family(family, n, static_cast<std::uint64_t>(s));
        obs::MemorySink sink;
        core::AsmParams params;
        params.epsilon = 0.25;
        params.k = k_override;
        params.obs_sink = &sink;
        params.outer_iterations = 1;  // isolate the inner loop
        k = core::run_asm(inst, params).schedule.k;
        const auto rows = obs::convergence_rows(sink);
        if (frac_at.size() < rows.size()) frac_at.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const std::int64_t active = rows[i].value(obs::Counter::kActiveMen);
          const std::int64_t bad = rows[i].value(obs::Counter::kBadActiveMen);
          if (active > 0) {
            frac_at[i].add(static_cast<double>(bad) /
                           static_cast<double>(active));
          }
        }
      }
      // Report a geometric selection of iteration counts.
      for (std::size_t l = 1; l <= frac_at.size();
           l = std::max(l + 1, l * 2)) {
        const double bound =
            2.0 * static_cast<double>(k) / static_cast<double>(l);
        const double measured = frac_at[l - 1].mean();
        const bool ok = measured <= std::min(1.0, bound) + 1e-12;
        all_ok = all_ok && ok;
        table.add_row({Table::num((long long)l), Table::num(measured, 4),
                       Table::num(std::min(1.0, bound), 4),
                       ok ? "yes" : "NO"});
      }
      std::cout << "family: " << family << " (k=" << k << ", n=" << n
                << ")\n";
      table.print(std::cout);
      std::cout << '\n';
    }
  }
  bench::print_verdict(all_ok, "bad-man fraction under the Lemma-6 envelope "
                               "at every traced iteration");
  return all_ok ? 0 : 1;
}
