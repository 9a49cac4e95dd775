#include "mm/runner.hpp"

#include <algorithm>

#include "mm/color_class_node.hpp"
#include "mm/israeli_itai.hpp"
#include "mm/pointer_greedy.hpp"
#include "mm/random_priority.hpp"
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

std::unique_ptr<Node> make_node(Backend backend, std::uint64_t seed,
                                NodeId node_id, NodeId degree_bound,
                                NodeId id_bound) {
  switch (backend) {
    case Backend::kPointerGreedy:
      return std::make_unique<PointerGreedyNode>();
    case Backend::kIsraeliItai:
      return std::make_unique<IsraeliItaiNode>(
          derive_stream(seed, static_cast<std::uint64_t>(node_id)));
    case Backend::kRandomPriority:
      return std::make_unique<RandomPriorityNode>(
          derive_stream(seed ^ 0x5b1ce, static_cast<std::uint64_t>(node_id)));
    case Backend::kColorClass:
      return std::make_unique<ColorClassNode>(degree_bound, id_bound);
  }
  DASM_CHECK_MSG(false, "unknown backend");
  return nullptr;
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
  Network net(g);
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
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    auto node =
        make_node(config.backend, config.seed, v, degree_bound, id_bound);
    const bool left =
        !is_left.empty() && is_left[static_cast<std::size_t>(v)];
    const auto nb = g.neighbors(v);
    node->reset(v, left, {nb.begin(), nb.end()});
    nodes.push_back(std::move(node));
  }

  RunResult result;
  const int rounds_per_iter =
      n > 0 ? nodes[0]->rounds_per_iteration() : 1;

  // The non-quiescent nodes in ascending id order, the only ones stepped:
  // a quiescent node sends nothing, draws nothing and keeps its partner
  // (mm/node.hpp), so skipping it leaves every send and inbox as stepping
  // all n nodes would. Quiescent nodes leave at iteration boundaries.
  std::vector<NodeId> live;
  for (NodeId v = 0; v < n; ++v) {
    if (!nodes[static_cast<std::size_t>(v)]->quiescent()) live.push_back(v);
  }

  int iter = 0;
  rec.begin_span(obs::Phase::kRun, 0, net.stats());
  while (true) {
    if (config.stop_on_quiescence && live.empty()) break;
    if (config.max_iterations > 0 && iter >= config.max_iterations) break;
    if (config.max_iterations == 0 && live.empty()) break;
    rec.begin_span(obs::Phase::kMmIteration, iter, net.stats());
    for (int r = 0; r < rounds_per_iter; ++r) {
      net.begin_round();
      for (const NodeId v : live) {
        nodes[static_cast<std::size_t>(v)]->on_round(net.inbox(v), net);
      }
      net.end_round();
    }
    std::erase_if(live, [&](NodeId v) {
      return nodes[static_cast<std::size_t>(v)]->quiescent();
    });
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
    const NodeId p = nodes[static_cast<std::size_t>(v)]->partner();
    if (p != kNoNode && v < p) {
      if (nodes[static_cast<std::size_t>(p)]->partner() != v) {
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
