// dasm-trace: inspect the JSONL artifacts of the observability subsystem
// (src/obs/) — phase traces (ISSUE 4) and wall-clock metrics snapshots
// (ISSUE 9).
//
// Usage:
//   dasm-trace summary TRACE.jsonl [--chrome OUT.json]
//       per-phase rollups, traffic breakdown, and convergence tables; with
//       --chrome, converts to Chrome trace-event JSON instead.
//   dasm-trace metrics SNAP.jsonl
//       counter/gauge values and histogram summaries (p50/p90/p99) of a
//       --metrics-out snapshot.
//   dasm-trace diff BASE.jsonl CAND.jsonl [--threshold PCT]
//       compares two snapshots metric by metric; exits 1 when any metric
//       regressed by more than PCT percent (default 25), so CI can gate
//       on it mechanically.
//
// Every file argument accepts "-" for stdin. Exits nonzero on parse
// errors and unknown flags, so the experiment harness can use a plain
// load as a validity check.

#include <array>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "congest/message.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using dasm::MsgType;
using dasm::Table;
using dasm::obs::ConvergenceRow;
using dasm::obs::Counter;
using dasm::obs::Event;
using dasm::obs::kCounterCount;
using dasm::obs::kPhaseCount;
using dasm::obs::MemorySink;
using dasm::obs::Phase;
using dasm::obs::RoundSample;

// Per-phase totals over every span of that phase. Spans record the network
// round and cumulative message count at begin/end, so both costs are
// subtractions; "rounds" of nested phases overlap their parents by design
// (this is a taxonomy rollup, not a partition).
struct PhaseTotals {
  std::int64_t spans = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

void print_phase_rollup(const MemorySink& sink, std::ostream& os) {
  std::array<PhaseTotals, kPhaseCount> totals{};
  std::vector<Event> stack;
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kBegin) {
      stack.push_back(e);
    } else if (e.kind == Event::Kind::kEnd) {
      if (stack.empty() || stack.back().phase != e.phase) continue;
      const Event b = stack.back();
      stack.pop_back();
      PhaseTotals& t = totals[static_cast<std::size_t>(e.phase)];
      ++t.spans;
      t.rounds += e.round - b.round;
      t.messages += e.value - b.value;
    }
  }

  Table table({"phase", "spans", "rounds", "messages", "rounds/span",
               "msgs/span"});
  for (int p = 0; p < kPhaseCount; ++p) {
    const PhaseTotals& t = totals[static_cast<std::size_t>(p)];
    if (t.spans == 0) continue;
    const double spans = static_cast<double>(t.spans);
    table.add_row({dasm::obs::to_string(static_cast<Phase>(p)),
                   Table::num(t.spans), Table::num(t.rounds),
                   Table::num(t.messages),
                   Table::num(static_cast<double>(t.rounds) / spans, 2),
                   Table::num(static_cast<double>(t.messages) / spans, 1)});
  }
  os << "Per-phase rollup (nested phases overlap their parents):\n";
  table.print(os);
}

void print_traffic_summary(const MemorySink& sink, std::ostream& os) {
  if (sink.rounds.empty()) return;
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t retransmitted = 0;
  std::int64_t filtered = 0;
  std::array<std::int64_t, 16> by_type{};
  RoundSample busiest;
  for (const RoundSample& r : sink.rounds) {
    messages += r.messages;
    bits += r.bits;
    delivered += r.delivered;
    dropped += r.dropped;
    duplicated += r.duplicated;
    retransmitted += r.retransmitted;
    filtered += r.filtered;
    for (std::size_t i = 0; i < by_type.size(); ++i) {
      by_type[i] += r.messages_by_type[i];
    }
    if (r.messages > busiest.messages) busiest = r;
  }
  os << "Rounds sampled: " << sink.rounds.size() << ", messages: " << messages
     << ", bits: " << bits << ", busiest round: " << busiest.round << " ("
     << busiest.messages << " msgs)\n";
  // Fault-layer rollup (DESIGN.md §8) — only for traces of faulty runs.
  if (dropped != 0 || duplicated != 0 || retransmitted != 0 ||
      filtered != 0 || delivered != messages) {
    os << "Fault layer: delivered " << delivered << ", dropped " << dropped
       << ", duplicated " << duplicated << ", retransmitted " << retransmitted
       << ", filtered " << filtered << "\n";
  }
  Table table({"msg type", "messages", "share"});
  for (std::size_t i = 0; i < by_type.size(); ++i) {
    if (by_type[i] == 0) continue;
    table.add_row({to_string(static_cast<MsgType>(i)), Table::num(by_type[i]),
                   Table::num(100.0 * static_cast<double>(by_type[i]) /
                                  static_cast<double>(messages),
                              1)});
  }
  if (table.rows() > 0) {
    os << "Traffic by message type:\n";
    table.print(os);
  }
}

// One row per inner iteration (ASM engines; obs::convergence_rows). This
// is the convergence curve of the run: matched size up, active men down.
void print_convergence(const MemorySink& sink, std::ostream& os) {
  const std::vector<ConvergenceRow> rows = dasm::obs::convergence_rows(sink);
  if (rows.empty()) return;

  // Only show counter columns the trace actually populated (blocking-pair
  // columns appear only when the run sampled them).
  std::array<bool, kCounterCount> present{};
  for (const ConvergenceRow& r : rows) {
    for (int c = 0; c < kCounterCount; ++c) {
      if (r.counters[static_cast<std::size_t>(c)]) {
        present[static_cast<std::size_t>(c)] = true;
      }
    }
  }
  std::vector<std::string> headers = {"outer", "inner", "round"};
  for (int c = 0; c < kCounterCount; ++c) {
    if (present[static_cast<std::size_t>(c)]) {
      headers.push_back(dasm::obs::to_string(static_cast<Counter>(c)));
    }
  }
  Table table(headers);
  for (const ConvergenceRow& r : rows) {
    std::vector<std::string> cells = {Table::num(r.outer), Table::num(r.inner),
                                      Table::num(r.round)};
    for (int c = 0; c < kCounterCount; ++c) {
      if (!present[static_cast<std::size_t>(c)]) continue;
      const auto& v = r.counters[static_cast<std::size_t>(c)];
      cells.push_back(v ? Table::num(*v) : "-");
    }
    table.add_row(std::move(cells));
  }
  os << "Convergence by inner iteration:\n";
  table.print(os);
}

// MM-runner traces have no inner iterations; show the Lemma-8 decay series
// (live nodes after each protocol iteration) instead.
void print_mm_decay(const MemorySink& sink, std::ostream& os) {
  struct Row {
    std::int64_t iteration;
    std::int64_t round;
    std::int64_t live;
  };
  std::vector<Row> rows;
  std::int64_t live = 0;
  bool have_live = false;
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kCounter && e.counter == Counter::kMmLiveNodes) {
      live = e.value;
      have_live = true;
    } else if (e.kind == Event::Kind::kEnd && e.phase == Phase::kMmIteration &&
               have_live) {
      rows.push_back(Row{e.index, e.round, live});
      have_live = false;
    }
  }
  if (rows.empty()) return;
  Table table({"iteration", "round", "live nodes"});
  for (const Row& r : rows) {
    table.add_row(
        {Table::num(r.iteration), Table::num(r.round), Table::num(r.live)});
  }
  os << "MM live-node decay:\n";
  table.print(os);
}

// Matching-service traces (src/svc/): per-batch request/traffic table plus
// the final cumulative cache counters. Batches are the kSvcBatch spans;
// the cache counters are sampled cumulatively at every batch boundary, so
// the last sample is the service-lifetime total.
void print_service_summary(const MemorySink& sink, std::ostream& os) {
  struct BatchRow {
    std::int64_t index;
    std::int64_t requests = 0;
    std::int64_t messages = 0;
  };
  std::vector<BatchRow> batches;
  std::int64_t open_requests = 0;
  std::optional<std::int64_t> hits, misses, shed;
  for (const Event& e : sink.events) {
    switch (e.kind) {
      case Event::Kind::kBegin:
        if (e.phase == Phase::kSvcBatch) {
          batches.push_back(BatchRow{e.index, 0, -e.value});
          open_requests = 0;
        }
        break;
      case Event::Kind::kEnd:
        if (e.phase == Phase::kSvcRequest) {
          ++open_requests;
        } else if (e.phase == Phase::kSvcBatch && !batches.empty()) {
          batches.back().requests = open_requests;
          batches.back().messages += e.value;
        }
        break;
      case Event::Kind::kCounter:
        if (e.counter == Counter::kSvcCacheHits) hits = e.value;
        if (e.counter == Counter::kSvcCacheMisses) misses = e.value;
        if (e.counter == Counter::kSvcShed) shed = e.value;
        break;
    }
  }
  if (batches.empty()) return;
  Table table({"batch", "requests", "messages"});
  for (const BatchRow& b : batches) {
    table.add_row(
        {Table::num(b.index), Table::num(b.requests), Table::num(b.messages)});
  }
  os << "Service batches:\n";
  table.print(os);
  if (hits || misses || shed) {
    os << "Service cache: " << hits.value_or(0) << " hits, "
       << misses.value_or(0) << " misses, " << shed.value_or(0)
       << " shed\n";
  }
}

bool has_svc_spans(const MemorySink& sink) {
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kBegin && e.phase == Phase::kSvcBatch) {
      return true;
    }
  }
  return false;
}

bool has_inner_spans(const MemorySink& sink) {
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kBegin && e.phase == Phase::kInner) return true;
  }
  return false;
}

int usage(const char* prog) {
  std::cerr
      << "usage: " << prog << " <subcommand> [args]\n"
      << "  " << prog << " summary TRACE.jsonl [--chrome OUT.json]\n"
      << "      phase rollups, traffic breakdown, convergence tables;\n"
      << "      --chrome converts to Chrome trace-event JSON instead\n"
      << "  " << prog << " metrics SNAP.jsonl\n"
      << "      counters, gauges, and histogram p50/p90/p99 of a\n"
      << "      --metrics-out snapshot\n"
      << "  " << prog << " diff BASE.jsonl CAND.jsonl [--threshold PCT]\n"
      << "      exits 1 when any metric regressed by more than PCT\n"
      << "      percent (default 25)\n"
      << "  every file argument accepts \"-\" for stdin\n";
  return 2;
}

/// Rejects flags outside `known` with a nonzero exit, matching the
/// bench::parse_options / cli::Parser::flag_names convention from PR 6: a
/// typo'd flag aborts loudly instead of being silently ignored.
bool flags_ok(const dasm::Cli& cli,
              std::initializer_list<const char*> known) {
  bool ok = true;
  for (const std::string& name : cli.flag_names()) {
    bool found = false;
    for (const char* k : known) {
      if (name == k) found = true;
    }
    if (!found) {
      std::cerr << "dasm-trace: unknown flag --" << name << "\n";
      ok = false;
    }
  }
  return ok;
}

bool load_trace(const std::string& path, MemorySink* sink) {
  std::string error;
  bool ok = false;
  if (path == "-") {
    ok = dasm::obs::load_jsonl(std::cin, sink, &error);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "dasm-trace: cannot open " << path << "\n";
      return false;
    }
    ok = dasm::obs::load_jsonl(in, sink, &error);
  }
  if (!ok) std::cerr << "dasm-trace: " << path << ": " << error << "\n";
  return ok;
}

bool load_metrics(const std::string& path, dasm::obs::MetricsSnapshot* snap) {
  std::string error;
  bool ok = false;
  if (path == "-") {
    ok = dasm::obs::load_metrics_jsonl(std::cin, snap, &error);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "dasm-trace: cannot open " << path << "\n";
      return false;
    }
    ok = dasm::obs::load_metrics_jsonl(in, snap, &error);
  }
  if (!ok) std::cerr << "dasm-trace: " << path << ": " << error << "\n";
  return ok;
}

int cmd_summary(const dasm::Cli& cli, const std::string& path) {
  MemorySink sink;
  if (!load_trace(path, &sink)) return 1;

  if (cli.has("chrome")) {
    const std::string out_path = cli.get("chrome", "");
    if (out_path.empty()) return usage(cli.program().c_str());
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "dasm-trace: cannot write " << out_path << "\n";
      return 1;
    }
    dasm::obs::write_chrome_trace(out, sink);
    std::cout << "wrote " << out_path << " (" << sink.events.size()
              << " events, " << sink.rounds.size() << " round samples)\n";
    return 0;
  }

  std::cout << "Trace: " << path << " — " << sink.events.size() << " events, "
            << sink.rounds.size() << " round samples\n\n";
  print_phase_rollup(sink, std::cout);
  std::cout << "\n";
  print_traffic_summary(sink, std::cout);
  std::cout << "\n";
  if (has_svc_spans(sink)) {
    print_service_summary(sink, std::cout);
  } else if (has_inner_spans(sink)) {
    print_convergence(sink, std::cout);
  } else {
    print_mm_decay(sink, std::cout);
  }
  return 0;
}

// Serve rollup (ISSUE 10): snapshots written by `dasm serve` carry the
// TCP front end's net.* counters next to the service-layer svc.* ones;
// derive the operator-facing ratios (requests per connection, shed and
// cache-hit rates, scrape count) instead of making the reader eyeball the
// raw table.
void print_serve_rollup(const dasm::obs::MetricsSnapshot& snap,
                        std::ostream& os) {
  auto counter = [&snap](const char* name) -> std::optional<std::int64_t> {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return std::nullopt;
  };
  const auto accepted = counter("net.accepted");
  if (!accepted) return;  // not a serve snapshot
  const std::int64_t requests = counter("net.requests").value_or(0);
  const std::int64_t responses = counter("net.responses").value_or(0);
  const std::int64_t errs = counter("net.err_lines").value_or(0);
  const std::int64_t shed = counter("svc.shed").value_or(0);
  const std::int64_t hits = counter("svc.cache_hits").value_or(0);
  const std::int64_t misses = counter("svc.cache_misses").value_or(0);
  os << "\nServe rollup:\n"
     << "  connections:  " << *accepted << " accepted, "
     << counter("net.closed").value_or(0) << " closed\n"
     << "  requests:     " << requests << " admitted, " << responses
     << " responses, " << shed << " shed, " << errs << " ERR lines\n";
  if (hits + misses > 0) {
    os << "  cache:        " << hits << " hits / " << misses << " misses ("
       << Table::num(100.0 * static_cast<double>(hits) /
                         static_cast<double>(hits + misses),
                     1)
       << "% hit rate)\n";
  }
  os << "  bytes:        " << counter("net.bytes_read").value_or(0)
     << " in, " << counter("net.bytes_written").value_or(0) << " out\n"
     << "  scrapes:      " << counter("net.scrapes").value_or(0) << "\n";
}

int cmd_metrics(const std::string& path) {
  dasm::obs::MetricsSnapshot snap;
  if (!load_metrics(path, &snap)) return 1;

  std::cout << "Metrics: " << path << " — " << snap.counters.size()
            << " counters, " << snap.gauges.size() << " gauges, "
            << snap.histograms.size() << " histograms\n\n";
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    Table table({"metric", "kind", "value"});
    for (const auto& c : snap.counters) {
      table.add_row({c.name, "counter", Table::num(c.value)});
    }
    for (const auto& g : snap.gauges) {
      table.add_row({g.name, "gauge", Table::num(g.value)});
    }
    std::cout << "Scalars:\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  if (!snap.histograms.empty()) {
    Table table({"histogram", "count", "mean", "min", "p50", "p90", "p99",
                 "max"});
    for (const auto& h : snap.histograms) {
      table.add_row({h.name, Table::num(h.count), Table::num(h.mean(), 1),
                     Table::num(h.min), Table::num(h.quantile(0.50)),
                     Table::num(h.quantile(0.90)), Table::num(h.quantile(0.99)),
                     Table::num(h.max)});
    }
    std::cout << "Histograms (quantiles have <= 12.5% bucket error):\n";
    table.print(std::cout);
  }
  print_serve_rollup(snap, std::cout);
  return 0;
}

int cmd_diff(const dasm::Cli& cli, const std::string& base_path,
             const std::string& cand_path) {
  dasm::obs::MetricsSnapshot base;
  dasm::obs::MetricsSnapshot cand;
  if (!load_metrics(base_path, &base) || !load_metrics(cand_path, &cand)) {
    return 1;
  }
  const double threshold = cli.get_double("threshold", 25.0);
  if (threshold < 0.0) {
    std::cerr << "dasm-trace: --threshold must be >= 0\n";
    return 2;
  }

  const std::vector<dasm::obs::MetricDelta> deltas =
      dasm::obs::diff_snapshots(base, cand, threshold);
  const char* kind_names[] = {"counter", "gauge", "histogram"};
  Table table({"metric", "kind", "base", "cand", "delta %", "status"});
  std::int64_t regressions = 0;
  std::int64_t missing = 0;
  for (const auto& d : deltas) {
    std::string delta_pct = "-";
    std::string status = "ok";
    if (d.missing_base || d.missing_cand) {
      status = d.missing_base ? "only in cand" : "only in base";
      ++missing;
    } else {
      if (d.base > 0.0) {
        delta_pct = Table::num((d.cand - d.base) / d.base * 100.0, 1);
      }
      if (d.regression) {
        status = "REGRESSED";
        ++regressions;
      } else if (d.cand < d.base) {
        status = "improved";
      }
    }
    table.add_row({d.name, kind_names[static_cast<int>(d.kind)],
                   Table::num(d.base, 1), Table::num(d.cand, 1),
                   std::move(delta_pct), std::move(status)});
  }
  std::cout << "Diff: " << base_path << " -> " << cand_path << " (threshold "
            << threshold << "%; histograms compare means)\n";
  table.print(std::cout);
  std::cout << deltas.size() << " metrics compared, " << regressions
            << " regressed, " << missing << " present on one side only\n";
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const dasm::Cli cli(argc, argv);
  const auto& pos = cli.positional();
  if (pos.empty()) return usage(argv[0]);

  if (pos[0] == "summary") {
    if (pos.size() != 2 || !flags_ok(cli, {"chrome"})) return usage(argv[0]);
    return cmd_summary(cli, pos[1]);
  }
  if (pos[0] == "metrics") {
    if (pos.size() != 2 || !flags_ok(cli, {})) return usage(argv[0]);
    return cmd_metrics(pos[1]);
  }
  if (pos[0] == "diff") {
    if (pos.size() != 3 || !flags_ok(cli, {"threshold"})) {
      return usage(argv[0]);
    }
    return cmd_diff(cli, pos[1], pos[2]);
  }
  return usage(argv[0]);
}
