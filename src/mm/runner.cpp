#include "mm/runner.hpp"

#include <algorithm>

#include "mm/run_context.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dasm::mm {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kPointerGreedy:
      return "pointer-greedy(det)";
    case Backend::kIsraeliItai:
      return "israeli-itai(rand)";
    case Backend::kRandomPriority:
      return "random-priority(rand)";
    case Backend::kColorClass:
      return "color-class(det)";
  }
  return "unknown";
}

RunResult run_maximal_matching(const Graph& g,
                               const std::vector<bool>& is_left,
                               const RunConfig& config) {
  const NodeId n = g.node_count();
  if (config.backend == Backend::kPointerGreedy) {
    DASM_CHECK_MSG(static_cast<NodeId>(is_left.size()) == n,
                   "pointer-greedy requires a bipartite orientation");
    for (const Edge& e : g.edges()) {
      DASM_CHECK_MSG(is_left[static_cast<std::size_t>(e.u)] !=
                         is_left[static_cast<std::size_t>(e.v)],
                     "edge (" << e.u << "," << e.v
                              << ") does not cross the bipartition");
    }
  }

  DASM_CHECK_MSG(config.threads == 1,
                 "RunConfig::threads must be 1 (a run is serial), got "
                     << config.threads);
  DASM_CHECK_MSG(!config.fault_plan.active() || config.retransmit_after >= 1 ||
                     config.max_iterations >= 1,
                 "an active fault plan needs retransmit_after >= 1 or "
                 "max_iterations >= 1: under raw loss the protocol may "
                 "never quiesce");
  const RunLease ctx;
  Network& net = ctx->net;
  net.rebind(g);
  if (config.trace_events > 0) net.enable_trace(config.trace_events);
  if (config.fault_plan.active()) net.set_fault_plan(config.fault_plan);
  if (config.retransmit_after > 0) {
    net.set_reliable_transport(config.retransmit_after,
                               config.max_retransmits);
  }
  obs::Recorder rec(config.obs_sink);
  if (rec.enabled()) {
    net.set_round_hook([&rec](const NetStats& stats) { rec.on_round(stats); });
  }
  const NodeId degree_bound = std::max<NodeId>(1, g.max_degree());
  const NodeId id_bound = std::max<NodeId>(2, n);
  NodePool& nodes = ctx->nodes;
  nodes.prepare(config.backend, config.seed, n, degree_bound, id_bound);
  for (NodeId v = 0; v < n; ++v) {
    const bool left =
        !is_left.empty() && is_left[static_cast<std::size_t>(v)];
    nodes[v].reset(v, left, g.neighbors(v));
  }

  RunResult result;
  const int rounds_per_iter = n > 0 ? nodes[0].rounds_per_iteration() : 1;

  // The non-quiescent nodes in ascending id order, the only ones stepped:
  // a quiescent node sends nothing, draws nothing and keeps its partner
  // (mm/node.hpp), so skipping it leaves every send and inbox as stepping
  // all n nodes would. Quiescent nodes leave at iteration boundaries.
  std::vector<NodeId>& live = ctx->live;
  live.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (!nodes[v].quiescent()) live.push_back(v);
  }

  // Without a budget the run goes to quiescence, which a crashed
  // neighbour (whose payloads die) can withhold forever. The cap is
  // AsmEngine::run_mm_phase's for Step 3, or kColorClass's fixed
  // schedule (a port round, then degree_bound^2 class passes, one per
  // iteration) where that is longer.
  std::int64_t cap = 2 * static_cast<std::int64_t>(n) + 16;
  if (config.backend == Backend::kColorClass) {
    cap = std::max(cap, std::int64_t{degree_bound} * degree_bound + 1);
  }
  int iter = 0;
  rec.begin_span(obs::Phase::kRun, 0, net.stats());
  while (true) {
    if (config.stop_on_quiescence && live.empty()) break;
    if (config.max_iterations > 0 && iter >= config.max_iterations) break;
    if (config.max_iterations == 0) {
      if (live.empty()) break;
      DASM_CHECK_MSG(
          iter < cap,
          "maximal matching failed to converge within the safety cap");
    }
    rec.begin_span(obs::Phase::kMmIteration, iter, net.stats());
    for (int r = 0; r < rounds_per_iter; ++r) {
      net.begin_round();
      for (const NodeId v : live) nodes[v].on_round(net.inbox(v), net);
      net.end_round();
    }
    std::erase_if(live, [&](NodeId v) { return nodes[v].quiescent(); });
    const auto live_count = static_cast<std::int64_t>(live.size());
    result.live_after_iteration.push_back(live_count);
    rec.counter(obs::Counter::kMmLiveNodes, net.stats().executed_rounds,
                live_count);
    rec.end_span(obs::Phase::kMmIteration, iter, net.stats());
    ++iter;
  }
  rec.end_span(obs::Phase::kRun, 0, net.stats());
  rec.finish(net.stats());
  result.iterations_executed = iter;
  result.net = net.stats();
  if (config.trace_events > 0) result.trace = net.trace();
  // Raw faults (a plan without the reliability sublayer) can strand a
  // half-delivered handshake, leaving the two endpoints disagreeing about
  // their partner; that is a property of the lossy execution, not a
  // protocol bug, so such pairs are simply not matched. On a reliable or
  // fault-free network disagreement remains a fatal invariant violation.
  const bool lossy =
      config.fault_plan.active() && config.retransmit_after == 0;
  Matching m(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = nodes[v].partner();
    if (p != kNoNode && v < p) {
      if (nodes[p].partner() != v) {
        DASM_CHECK_MSG(lossy, "inconsistent partners " << v << " and " << p);
        continue;
      }
      m.add(v, p);
    }
  }
  result.maximal = m.is_maximal(g);
  result.matching = std::move(m);
  return result;
}

}  // namespace dasm::mm
