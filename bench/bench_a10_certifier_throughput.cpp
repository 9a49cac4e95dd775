// A10 — certifier throughput (ISSUE 8): the flat-arena, prefix-pruned
// blocking-pair scans against the pre-arena reference (per-list hash-map
// inverse ranks, full-list scan; stable/ref_certify.hpp).
//
// One certification pass = classic count + eps count + metrics over three
// matchings (empty / Gale–Shapley-stable / random-partial) of the same
// instance; throughput is reported as nominal edges/s (both sides are
// charged the full 2 * |E| + |E| scan per pass, so the arena side's
// prefix pruning shows up as speedup, not as a smaller denominator).
//
// Before any timing, every implementation's counts, first witnesses,
// almost-stability decisions and metrics are cross-checked pairwise
// (DASM_CHECK — a mismatch aborts the bench). Speedup verdict: arena
// >= 3x map baseline on the dense instance. The certifier is serial; a
// thread-sharded scan measured 0.87-0.97x serial at 2 and 4 threads on
// a 4-vCPU host and was removed (DESIGN.md §6).
//
// --n N          dense instance size (default 2000; smoke runs use less)
// --json-out P   machine-readable results (default BENCH_a10_certifier.json)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stable/blocking.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/metrics.hpp"
#include "stable/ref_certify.hpp"
#include "util/table.hpp"

namespace dasm {
namespace {

constexpr double kEps = 0.05;

Matching random_partial_matching(const Instance& inst, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto& bg = inst.graph();
  Matching m(bg.node_count());
  for (NodeId man = 0; man < inst.n_men(); ++man) {
    const PreferenceList& pref = inst.man_pref(man);
    if (pref.empty() || (rng() & 1) == 0) continue;
    const auto r = static_cast<NodeId>(
        rng() % static_cast<std::uint64_t>(pref.degree()));
    const NodeId w = pref.at_rank(r);
    if (m.is_matched(bg.woman_id(w))) continue;
    m.add(bg.man_id(man), bg.woman_id(w));
  }
  return m;
}

// The reference results one matching pins down; every implementation must
// reproduce them bit for bit.
struct Expected {
  std::int64_t classic = 0;
  std::int64_t eps = 0;
  std::optional<BlockingPair> first_classic;
  std::optional<BlockingPair> first_eps;
  bool almost_tight = false;  // eps budget right at the classic count
  MatchingMetrics metrics;
};

void check_metrics(const MatchingMetrics& a, const MatchingMetrics& b) {
  DASM_CHECK(a.matched_pairs == b.matched_pairs);
  DASM_CHECK(a.unmatched_men == b.unmatched_men);
  DASM_CHECK(a.unmatched_women == b.unmatched_women);
  DASM_CHECK(a.men_rank_sum == b.men_rank_sum);
  DASM_CHECK(a.women_rank_sum == b.women_rank_sum);
  DASM_CHECK(a.egalitarian_cost == b.egalitarian_cost);
  DASM_CHECK(a.sex_equality_cost == b.sex_equality_cost);
  DASM_CHECK(a.men_regret == b.men_regret);
  DASM_CHECK(a.women_regret == b.women_regret);
}

struct Workload {
  std::string name;
  Instance inst;
  ref::RefInstance ref_inst;
  std::vector<Matching> matchings;
  std::vector<Expected> expected;

  Workload(std::string name_, Instance inst_, std::uint64_t seed)
      : name(std::move(name_)), inst(std::move(inst_)), ref_inst(inst) {
    matchings.emplace_back(inst.graph().node_count());
    matchings.push_back(gale_shapley(inst).matching);
    matchings.push_back(random_partial_matching(inst, seed * 31 + 7));
    for (const Matching& m : matchings) {
      Expected e;
      e.classic = ref::count_blocking_pairs(ref_inst, m);
      e.eps = ref::count_eps_blocking_pairs(ref_inst, m, kEps);
      e.first_classic = ref::first_blocking_pair(ref_inst, m);
      e.first_eps = ref::first_eps_blocking_pair(ref_inst, m, kEps);
      e.almost_tight = ref::is_almost_stable(
          ref_inst, m,
          static_cast<double>(e.classic) /
              static_cast<double>(inst.edge_count()));
      e.metrics = ref::compute_metrics(ref_inst, m);
      expected.push_back(std::move(e));
      matched_edges += m.size();
      verified += 6;
    }
  }

  std::int64_t matched_edges = 0;
  std::int64_t verified = 0;
};

// Cross-check the arena certifier against the reference results. Returns
// the number of checks performed.
std::int64_t verify_arena(const Workload& w) {
  std::int64_t checks = 0;
  for (std::size_t i = 0; i < w.matchings.size(); ++i) {
    const Matching& m = w.matchings[i];
    const Expected& e = w.expected[i];
    DASM_CHECK(count_blocking_pairs(w.inst, m) == e.classic);
    DASM_CHECK(count_eps_blocking_pairs(w.inst, m, kEps) == e.eps);
    DASM_CHECK(first_blocking_pair(w.inst, m) == e.first_classic);
    DASM_CHECK(first_eps_blocking_pair(w.inst, m, kEps) == e.first_eps);
    const double tight = static_cast<double>(e.classic) /
                         static_cast<double>(w.inst.edge_count());
    DASM_CHECK(is_almost_stable(w.inst, m, tight) == e.almost_tight);
    check_metrics(compute_metrics(w.inst, m), e.metrics);
    checks += 6;
  }
  return checks;
}

// One full certification pass; the accumulated counts are checked against
// the expectation so the compiler cannot elide the scans.
template <typename Count, typename CountEps, typename Metrics>
void run_pass(const Workload& w, Count&& count, CountEps&& count_eps,
              Metrics&& metrics) {
  for (std::size_t i = 0; i < w.matchings.size(); ++i) {
    const Matching& m = w.matchings[i];
    DASM_CHECK(count(m) == w.expected[i].classic);
    DASM_CHECK(count_eps(m) == w.expected[i].eps);
    DASM_CHECK(metrics(m).matched_pairs == w.expected[i].metrics.matched_pairs);
  }
}

template <typename Pass>
double best_seconds(int reps, Pass&& pass) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string instance;
  std::string impl;
  std::int64_t edges = 0;
  double seconds = 0;
  double edges_per_s = 0;
};

int bench_main(int argc, const char* const* argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {"n", "json-out"});
  const Cli cli(argc, argv);
  const auto n = static_cast<NodeId>(
      cli.get_int("n", bench::large_mode() ? 3000 : 2000));
  const std::string json_out = cli.get("json-out", "BENCH_a10_certifier.json");
  const int reps = 3;

  bench::print_header(
      "A10",
      "flat rank arenas + prefix-pruned scans certify faster than the "
      "hash-map representation",
      "arena >= 3x map baseline edges/s on the dense instance; "
      "bit-identical counts/witnesses/metrics everywhere");

  std::vector<Workload> workloads;
  // RefInstance points into the Workload's own Instance; reserving up
  // front keeps those addresses stable.
  workloads.reserve(2);
  workloads.emplace_back("complete", gen::complete_uniform(n, 1), 1);
  // Expected degree ~32: every list takes the sorted-pairs fallback.
  workloads.emplace_back(
      "sparse",
      gen::incomplete_uniform(n, n, 32.0 / static_cast<double>(n), 2), 2);

  // ---- Identity first: map vs arena ------------------------------------
  std::int64_t identity_checks = 0;
  for (const Workload& w : workloads) {
    identity_checks += w.verified;
    identity_checks += verify_arena(w);
  }
  bench::print_verdict(true, "bit-identical counts, first witnesses, "
                             "almost-stability decisions and metrics "
                             "across map/arena (" +
                             std::to_string(identity_checks) + " checks)");
  std::cout << "\n";

  // ---- Throughput ------------------------------------------------------
  std::vector<Row> rows;
  double dense_speedup = 0;
  for (const Workload& w : workloads) {
    // Nominal work per pass: two O(|E|) scans + one O(n) metrics pass
    // over each of the three matchings.
    const std::int64_t edges =
        3 * 2 * w.inst.edge_count() +
        static_cast<std::int64_t>(w.inst.n_men() + w.inst.n_women()) * 3;
    const double map_s = best_seconds(reps, [&] {
      run_pass(
          w,
          [&](const Matching& m) {
            return ref::count_blocking_pairs(w.ref_inst, m);
          },
          [&](const Matching& m) {
            return ref::count_eps_blocking_pairs(w.ref_inst, m, kEps);
          },
          [&](const Matching& m) {
            return ref::compute_metrics(w.ref_inst, m);
          });
    });
    rows.push_back({w.name, "map", edges, map_s,
                    static_cast<double>(edges) / map_s});

    const double arena_s = best_seconds(reps, [&] {
      run_pass(
          w,
          [&](const Matching& m) { return count_blocking_pairs(w.inst, m); },
          [&](const Matching& m) {
            return count_eps_blocking_pairs(w.inst, m, kEps);
          },
          [&](const Matching& m) { return compute_metrics(w.inst, m); });
    });
    rows.push_back({w.name, "arena", edges, arena_s,
                    static_cast<double>(edges) / arena_s});
    if (w.name == "complete") dense_speedup = map_s / arena_s;
  }

  Table table({"instance", "impl", "edges/pass", "best seconds", "edges/s"});
  for (const Row& r : rows) {
    table.add_row({r.instance, r.impl, Table::num(r.edges),
                   Table::num(r.seconds), Table::num(r.edges_per_s, 0)});
  }
  table.print(std::cout);
  std::cout << "\n";

  // ---- Verdict ---------------------------------------------------------
  const bool ok = dense_speedup >= 3.0;
  {
    std::ostringstream what;
    what << "arena >= 3x map baseline on complete n=" << n << " ("
         << Table::num(dense_speedup, 2) << "x)";
    bench::print_verdict(ok, what.str());
  }

  // ---- Machine-readable results ---------------------------------------
  {
    std::ofstream js(json_out);
    DASM_CHECK_MSG(js.good(), "cannot open " << json_out);
    js << "{\n  \"bench\": \"a10_certifier\",\n  \"n\": " << n
       << ",\n  \"eps\": " << kEps
       << ",\n  \"identity_checks\": " << identity_checks
       << ",\n  \"dense_serial_speedup\": " << dense_speedup
       << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      js << "    {\"instance\": \"" << r.instance << "\", \"impl\": \""
         << r.impl << "\", \"edges_per_pass\": " << r.edges
         << ", \"best_seconds\": " << r.seconds
         << ", \"edges_per_s\": " << r.edges_per_s << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    DASM_CHECK_MSG(js.good(), "write to " << json_out << " failed");
  }
  std::cout << "\nwrote " << json_out << "\n";

  // Separate instrumented pass for --metrics-out, after all timing: one
  // arena certification pass per workload with each scan recorded into
  // time.certify.scan_us, the per-scan latency distribution EXPERIMENTS.md
  // A11 reads.
  if (!opt.metrics_out.empty()) {
    obs::MetricsRegistry registry;
    const obs::CounterHandle scans = registry.counter("certify.scans");
    const obs::HistogramHandle scan_us =
        registry.histogram("time.certify.scan_us");
    for (const Workload& w : workloads) {
      for (const Matching& m : w.matchings) {
        {
          const obs::ScopedTimer timer(scan_us);
          DASM_CHECK(count_blocking_pairs(w.inst, m) >= 0);
        }
        scans.inc();
        {
          const obs::ScopedTimer timer(scan_us);
          DASM_CHECK(count_eps_blocking_pairs(w.inst, m, kEps) >= 0);
        }
        scans.inc();
        {
          const obs::ScopedTimer timer(scan_us);
          DASM_CHECK(compute_metrics(w.inst, m).matched_pairs >= 0);
        }
        scans.inc();
      }
    }
    bench::write_metrics_snapshot(opt.metrics_out, registry);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dasm

int main(int argc, char** argv) { return dasm::bench_main(argc, argv); }
