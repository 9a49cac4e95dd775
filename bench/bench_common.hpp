// Shared helpers for the experiment binaries (E1..E12; see DESIGN.md §3
// and EXPERIMENTS.md). Each binary prints the experiment id, the paper
// claim it reproduces, and a table of measured series.
//
// All binaries accept --seeds/--scale-style flags where it makes sense and
// honour the DASM_BENCH_LARGE=1 environment variable for bigger sweeps.
#pragma once

#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "stable/instance.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace dasm::bench {

inline bool large_mode() {
  const char* v = std::getenv("DASM_BENCH_LARGE");
  return v != nullptr && std::string(v) != "0";
}

/// The flags every experiment binary shares, parsed once per main:
///
///   --threads N    sweep worker threads (the one parallel layer;
///                  DESIGN.md §6). Absent or <= 0 selects hardware
///                  concurrency; --threads 1 runs the cells inline (sweeps
///                  aggregate in cell-index order, so every value prints
///                  the same tables).
///   --trace-out P  write an observability trace (src/obs/) of one
///                  representative run to P: ".json" selects Chrome
///                  trace-event JSON, anything else the JSONL form
///                  dasm-trace inspects. Empty = tracing off.
///   --metrics-out P  write a wall-clock metrics snapshot (src/obs/
///                  metrics.hpp) of one instrumented pass to P: ".prom"
///                  selects Prometheus text exposition, anything else the
///                  JSONL form `dasm-trace metrics` / `dasm-trace diff`
///                  consume. The instrumented pass runs after the timed
///                  sweep, so it never perturbs the measurements. Empty =
///                  metrics off.
struct Options {
  int threads = 1;
  std::string trace_out;
  std::string metrics_out;
};

/// Parses the shared flags, rejecting anything unrecognized: an unknown
/// flag or stray positional exits with status 2 and a usage message, so a
/// typo'd `--theads 4` aborts loudly instead of silently running serial.
/// `extra_flags` lets a binary accept additional flags of its own.
inline Options parse_options(int argc, const char* const* argv,
                             std::initializer_list<const char*> extra_flags = {}) {
  const Cli cli(argc, argv);
  auto known = [&](const std::string& name) {
    if (name == "threads" || name == "trace-out" || name == "metrics-out") {
      return true;
    }
    for (const char* extra : extra_flags) {
      if (name == extra) return true;
    }
    return false;
  };
  bool bad = false;
  for (const std::string& name : cli.flag_names()) {
    if (known(name)) continue;
    std::cerr << cli.program() << ": unknown flag --" << name << "\n";
    bad = true;
  }
  for (const std::string& pos : cli.positional()) {
    std::cerr << cli.program() << ": unexpected argument '" << pos << "'\n";
    bad = true;
  }
  if (bad) {
    std::cerr << "usage: " << cli.program()
              << " [--threads N] [--trace-out PATH] [--metrics-out PATH]";
    for (const char* extra : extra_flags) std::cerr << " [--" << extra << " V]";
    std::cerr << "\n";
    std::exit(2);
  }
  Options opt;
  const auto threads = cli.get_int("threads", 0);
  opt.threads =
      threads > 0 ? static_cast<int>(threads) : par::hardware_threads();
  opt.trace_out = cli.get("trace-out", "");
  opt.metrics_out = cli.get("metrics-out", "");
  return opt;
}

/// Re-runs one representative ASM cell with the observability recorder
/// attached (blocking-pair sampling on — an O(|E|) scan per inner
/// iteration, acceptable for a single traced cell) and writes the trace
/// to `path`. Benches call this after their sweep so the traced run never
/// perturbs the measured one.
inline void export_asm_trace(const std::string& path, const Instance& inst,
                             core::AsmParams params) {
  obs::MemorySink sink;
  params.obs_sink = &sink;
  params.obs_blocking_pairs = true;
  core::run_asm(inst, params);
  obs::write_trace_file(sink, path);
  std::cout << "[trace] wrote " << path << " (" << sink.events.size()
            << " events, " << sink.rounds.size() << " round samples)\n";
}

/// Writes `registry`'s snapshot to `path` (".prom" = Prometheus text
/// exposition, else JSONL) and prints a one-line confirmation, mirroring
/// export_asm_trace(). No-op under DASM_OBS_DISABLED beyond the empty
/// snapshot.
inline void write_metrics_snapshot(const std::string& path,
                                   const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  obs::write_metrics_file(snap, path);
  std::cout << "[metrics] wrote " << path << " (" << snap.counters.size()
            << " counters, " << snap.gauges.size() << " gauges, "
            << snap.histograms.size() << " histograms)\n";
}

/// Re-runs one representative ASM cell with a metrics registry attached
/// and writes its snapshot to `path` — the metrics twin of
/// export_asm_trace(), run after the timed sweep so instrumentation never
/// perturbs the measurements.
inline void export_asm_metrics(const std::string& path, const Instance& inst,
                               core::AsmParams params) {
  obs::MetricsRegistry registry;
  params.metrics = &registry;
  core::run_asm(inst, params);
  write_metrics_snapshot(path, registry);
}

inline void print_header(const std::string& id, const std::string& claim,
                         const std::string& expected_shape) {
  std::cout << "==================================================\n"
            << "Experiment " << id << "\n"
            << "Paper claim: " << claim << "\n"
            << "Expected shape: " << expected_shape << "\n"
            << "==================================================\n\n";
}

inline void print_verdict(bool ok, const std::string& what) {
  std::cout << (ok ? "[SHAPE OK]  " : "[SHAPE MISMATCH]  ") << what << "\n";
}

/// Instance family registry used across experiments.
inline Instance make_family(const std::string& family, NodeId n,
                            std::uint64_t seed) {
  if (family == "complete") return gen::complete_uniform(n, seed);
  if (family == "incomplete") {
    // Expected degree ~16 regardless of n.
    const double p = std::min(1.0, 16.0 / static_cast<double>(n));
    return gen::incomplete_uniform(n, n, p, seed);
  }
  if (family == "regular")
    return gen::regular_bipartite(n, std::min<NodeId>(n, 16), seed);
  if (family == "bounded")
    return gen::bounded_degree(n, std::min<NodeId>(n, 8), seed);
  if (family == "master") return gen::master_list(n, n, seed);
  if (family == "almost_regular")
    return gen::almost_regular(n, std::max<NodeId>(1, 8),
                               std::min<NodeId>(n, 24), seed);
  if (family == "chain") return gen::gs_displacement_chain(n);
  if (family == "zipf") return gen::zipf_popularity(n, 1.5, seed);
  if (family == "geometric")
    return gen::geometric_knn(n, std::min<NodeId>(n, 8), seed);
  if (family == "social")
    return gen::windowed_acquaintance(n, std::min<NodeId>(n / 2, 10), 3, seed);
  DASM_CHECK_MSG(false, "unknown family '" << family << "'");
  return gen::complete_uniform(n, seed);
}

}  // namespace dasm::bench
