// A6 — throughput of the CONGEST round engine: the zero-allocation
// CSR-arena delivery path (congest/network.cpp) vs. a faithful replica of
// the previous per-node vector inbox/outbox engine (inboxes reallocated
// every round, trace evicted with erase(begin())).
//
// Three measurements per graph family:
//   1. rounds/sec and messages/sec, all-edges traffic, tracing off;
//   2. the same with a capped trace enabled (the erase-front eviction is
//      O(cap) per dropped event — quadratic once the cap is hit);
//   3. heap allocations per steady-state round of the arena engine,
//      counted by a replaced global operator new (must be exactly 0).
//
// The two engines are also driven through an identical randomized schedule
// and must agree on every inbox (contents and order), every NetStats
// field, and the silent-round flag — the bit-for-bit equivalence the
// tentpole refactor promises.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <new>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "par/sweep.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every path to the heap in this binary goes through
// these operators, so a delta of zero over a window proves the engine did
// not touch the allocator.
namespace {
std::atomic<long long> g_heap_allocs{0};
}

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dasm {
namespace {

// The seed engine's per-field wire-size loop (one shift per magnitude
// bit), replicated verbatim so the baseline pays the same per-send costs
// the pre-change engine paid.
int legacy_payload_bits(std::int64_t v) {
  if (v == 0) return 0;
  std::uint64_t mag = static_cast<std::uint64_t>(v < 0 ? -v : v);
  int bits = 1;  // sign bit
  while (mag > 0) {
    ++bits;
    mag >>= 1;
  }
  return bits;
}

int legacy_encoded_bits(const Message& msg) {
  return 8 + legacy_payload_bits(msg.a) + legacy_payload_bits(msg.b);
}

// Replica of the pre-arena engine: per-node vector inboxes/outboxes moved
// and regrown every round, binary-search edge lookup, nested per-node
// stamp vectors, erase-from-front trace eviction — the seed's
// congest/network.cpp send/end_round paths, line for line.
class LegacyEngine {
 public:
  explicit LegacyEngine(std::vector<std::vector<NodeId>> adjacency,
                        int bit_budget)
      : adj_(std::move(adjacency)), bit_budget_(bit_budget) {
    const auto n = adj_.size();
    inboxes_.resize(n);
    outboxes_.resize(n);
    sent_stamp_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      sent_stamp_[v].assign(adj_[v].size(), -1);
    }
  }

  void begin_round() {
    round_open_ = true;
    ++round_serial_;
  }

  void send(NodeId from, NodeId to, const Message& msg) {
    DASM_CHECK(round_open_);
    const auto& nb = adj_[static_cast<std::size_t>(from)];
    const auto it = std::lower_bound(nb.begin(), nb.end(), to);
    DASM_CHECK(it != nb.end() && *it == to);
    auto& stamp = sent_stamp_[static_cast<std::size_t>(from)]
                             [static_cast<std::size_t>(it - nb.begin())];
    DASM_CHECK(stamp != round_serial_);
    stamp = round_serial_;
    const int bits = legacy_encoded_bits(msg);
    DASM_CHECK(bits <= bit_budget_);
    if (trace_cap_ > 0) {
      if (trace_.size() >= trace_cap_) {
        trace_.erase(trace_.begin());
        ++trace_dropped_;
      }
      trace_.push_back(TraceEvent{stats_.executed_rounds, from, to, msg});
    }
    outboxes_[static_cast<std::size_t>(to)].push_back(Envelope{from, msg});
    ++stats_.messages;
    ++stats_.delivered;  // reliable wire: every committed send arrives
    ++stats_.messages_by_type[static_cast<std::size_t>(msg.type)];
    stats_.bits += bits;
    stats_.max_message_bits = std::max(stats_.max_message_bits, bits);
  }

  void end_round() {
    DASM_CHECK(round_open_);
    round_open_ = false;
    last_round_silent_ = true;
    for (std::size_t v = 0; v < adj_.size(); ++v) {
      inboxes_[v] = std::move(outboxes_[v]);
      outboxes_[v].clear();
      if (!inboxes_[v].empty()) last_round_silent_ = false;
    }
    ++stats_.executed_rounds;
    ++stats_.scheduled_rounds;
  }

  const std::vector<Envelope>& inbox(NodeId v) const {
    return inboxes_[static_cast<std::size_t>(v)];
  }
  bool last_round_was_silent() const { return last_round_silent_; }
  const NetStats& stats() const { return stats_; }
  void enable_trace(std::size_t cap) {
    trace_cap_ = cap;
    trace_.reserve(cap);
  }
  std::int64_t dropped_trace_events() const { return trace_dropped_; }

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::vector<Envelope>> inboxes_;
  std::vector<std::vector<Envelope>> outboxes_;
  std::vector<std::vector<std::int64_t>> sent_stamp_;
  std::int64_t round_serial_ = 0;
  bool round_open_ = false;
  bool last_round_silent_ = true;
  int bit_budget_ = 0;
  NetStats stats_;
  std::vector<TraceEvent> trace_;
  std::size_t trace_cap_ = 0;
  std::int64_t trace_dropped_ = 0;
};

std::vector<std::vector<NodeId>> complete_bipartite(NodeId half) {
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(2 * half));
  for (NodeId u = 0; u < half; ++u) {
    for (NodeId v = 0; v < half; ++v) {
      adj[static_cast<std::size_t>(u)].push_back(half + v);
      adj[static_cast<std::size_t>(half + v)].push_back(u);
    }
  }
  return adj;
}

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

// The arena engine borrows a Graph; the legacy replica keeps its own
// adjacency lists, as the engine it copies did.
Graph graph_of(const std::vector<std::vector<NodeId>>& adj) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
    for (const NodeId v : adj[static_cast<std::size_t>(u)]) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return Graph(static_cast<NodeId>(adj.size()), edges);
}

// One all-edges round followed by the read pass every experiment's driver
// performs: each directed edge carries a protocol-shaped message (an id
// and a rank payload), then every node consumes its inbox.
template <typename Engine>
std::int64_t saturate_round(Engine& eng,
                            const std::vector<std::vector<NodeId>>& adj,
                            int round) {
  eng.begin_round();
  const auto n = static_cast<NodeId>(adj.size());
  for (NodeId u = 0; u < n; ++u) {
    const auto id_payload = static_cast<std::int64_t>((u * 31 + round) % n);
    const auto rank_payload = static_cast<std::int64_t>(round % 997 + 1);
    for (NodeId v : adj[static_cast<std::size_t>(u)]) {
      eng.send(u, v, Message{MsgType::kPropose, id_payload, rank_payload});
    }
  }
  eng.end_round();
  std::int64_t checksum = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const Envelope& e : eng.inbox(v)) checksum += e.msg.a + e.from;
  }
  return checksum;
}

// Defeats dead-code elimination of the inbox read pass; reported at the
// end of main so the reads are observable.
std::int64_t g_sink = 0;

struct Throughput {
  double rounds_per_sec = 0;
  double msgs_per_sec = 0;
};

template <typename Engine>
Throughput time_saturated(Engine& eng,
                          const std::vector<std::vector<NodeId>>& adj,
                          int rounds) {
  for (int r = 0; r < 3; ++r) g_sink += saturate_round(eng, adj, r);
  const auto msgs_before = eng.stats().messages;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) g_sink += saturate_round(eng, adj, r);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const auto msgs = eng.stats().messages - msgs_before;
  return Throughput{static_cast<double>(rounds) / secs,
                    static_cast<double>(msgs) / secs};
}

// Drives both engines through the same randomized schedule and verifies
// bit-for-bit agreement of inboxes, stats, and the silent flag.
bool engines_agree(const std::vector<std::vector<NodeId>>& adj, int rounds,
                   std::uint64_t seed) {
  const Graph graph = graph_of(adj);
  Network arena(graph);
  LegacyEngine legacy(adj, arena.message_bit_budget());
  Xoshiro256 rng(seed);
  for (int r = 0; r < rounds; ++r) {
    arena.begin_round();
    legacy.begin_round();
    for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
      for (NodeId v : adj[static_cast<std::size_t>(u)]) {
        if (!rng.bernoulli(0.5)) continue;
        const Message msg{static_cast<MsgType>(rng.below(4)),
                          rng.range(0, 1 << 10)};
        arena.send(u, v, msg);
        legacy.send(u, v, msg);
      }
    }
    arena.end_round();
    legacy.end_round();
    if (arena.last_round_was_silent() != legacy.last_round_was_silent()) {
      return false;
    }
    for (NodeId v = 0; v < static_cast<NodeId>(adj.size()); ++v) {
      const InboxView got = arena.inbox(v);
      const auto& want = legacy.inbox(v);
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!(got[i] == want[i])) return false;
      }
    }
  }
  return arena.stats() == legacy.stats();
}

}  // namespace
}  // namespace dasm

int main(int argc, char** argv) {
  using namespace dasm;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "A6",
      "Engine plumbing, not the paper: per-round message delivery cost of "
      "the CONGEST simulator that every experiment pays",
      "CSR-arena engine >= 2x rounds/sec of the legacy vector engine on "
      "dense graphs, identical delivered traffic, 0 allocations per "
      "steady-state round");

  const bool large = bench::large_mode();
  struct Config {
    const char* name;
    std::vector<std::vector<NodeId>> adj;
    int rounds;
  };
  std::vector<Config> configs;
  configs.push_back({"dense (K_128,128)", complete_bipartite(128),
                     large ? 600 : 200});
  configs.push_back({"sparse (8-reg circulant, n=8192)", circulant(8192, 8),
                     large ? 600 : 200});

  Table table({"graph", "engine", "trace", "rounds/s", "Mmsg/s", "speedup"});
  bool dense_speedup_ok = false;
  for (auto& cfg : configs) {
    for (const bool traced : {false, true}) {
      // The trace cap is deliberately smaller than one round's traffic so
      // eviction runs continuously. The legacy engine pays O(cap) per
      // dropped event here, so its traced arm gets far fewer rounds to
      // keep the bench's runtime bounded.
      const std::size_t cap = 1024;
      const int rounds = traced ? (large ? 12 : 5) : cfg.rounds;
      LegacyEngine legacy(cfg.adj, 1 << 20);
      const Graph graph = graph_of(cfg.adj);
      Network arena(graph, 1 << 20);
      if (traced) {
        legacy.enable_trace(cap);
        arena.enable_trace(cap);
      }
      const Throughput before = time_saturated(legacy, cfg.adj, rounds);
      const Throughput after = time_saturated(arena, cfg.adj, rounds);
      const double speedup = after.rounds_per_sec / before.rounds_per_sec;
      table.add_row({cfg.name, "legacy", traced ? "on" : "off",
                     Table::num(before.rounds_per_sec, 0),
                     Table::num(before.msgs_per_sec / 1e6, 1), "1"});
      table.add_row({cfg.name, "arena", traced ? "on" : "off",
                     Table::num(after.rounds_per_sec, 0),
                     Table::num(after.msgs_per_sec / 1e6, 1),
                     Table::num(speedup, 2)});
      if (!traced && cfg.name[0] == 'd') dense_speedup_ok = speedup >= 2.0;
    }
  }
  table.print(std::cout);

  // Equivalence: both engines, same randomized schedules. The independent
  // (graph, seed) cells run on a SweepRunner (--threads N); the verdict
  // AND-reduces the cell results in index order.
  struct AgreeCell {
    std::vector<std::vector<NodeId>> adj;
    std::uint64_t seed;
  };
  std::vector<AgreeCell> agree_cells;
  agree_cells.push_back({complete_bipartite(24), 1});
  agree_cells.push_back({circulant(512, 6), 2});
  par::SweepRunner sweep(opts.threads);
  // int cells, not bool: vector<bool> packs slots into shared words, which
  // concurrent cell writes would race on.
  const auto agreement = sweep.map<int>(
      static_cast<std::int64_t>(agree_cells.size()), [&](std::int64_t i) {
        const AgreeCell& cell = agree_cells[static_cast<std::size_t>(i)];
        return engines_agree(cell.adj, 60, cell.seed) ? 1 : 0;
      });
  bool agree = true;
  for (const int cell_ok : agreement) agree = agree && cell_ok != 0;
  std::cout << "\n";
  bench::print_verdict(agree,
                       "inboxes, NetStats, and silent flags bit-identical "
                       "across engines on randomized schedules");

  // Steady-state allocation count of the arena engine (trace on and off:
  // the ring buffer is preallocated, so tracing stays allocation-free).
  bool zero_alloc = true;
  const auto alloc_adj = complete_bipartite(32);
  const Graph alloc_graph = graph_of(alloc_adj);
  for (const bool traced : {false, true}) {
    Network arena(alloc_graph);
    if (traced) arena.enable_trace(64);
    for (int r = 0; r < 4; ++r) g_sink += saturate_round(arena, alloc_adj, r);
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int r = 0; r < 64; ++r) g_sink += saturate_round(arena, alloc_adj, r);
    const long long allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    std::cout << "arena engine, trace " << (traced ? "on" : "off")
              << ": " << allocs << " heap allocations over 64 rounds\n";
    zero_alloc = zero_alloc && allocs == 0;
  }
  bench::print_verdict(zero_alloc, "steady-state rounds allocate nothing");
  bench::print_verdict(dense_speedup_ok,
                       "arena engine >= 2x legacy rounds/sec on the dense "
                       "graph (trace off)");

  // Separate instrumented pass for --metrics-out, after every timed
  // measurement so the registry never perturbs them: saturated rounds on
  // the dense graph with the wall-clock metrics attached.
  if (!opts.metrics_out.empty()) {
    obs::MetricsRegistry registry;
    const auto metrics_adj = complete_bipartite(128);
    const Graph metrics_graph = graph_of(metrics_adj);
    Network arena(metrics_graph, 1 << 20);
    arena.set_metrics(&registry);
    for (int r = 0; r < 50; ++r) {
      g_sink += saturate_round(arena, metrics_adj, r);
    }
    bench::write_metrics_snapshot(opts.metrics_out, registry);
  }
  std::cout << "(read-pass checksum " << g_sink << ")\n";
  return 0;
}
