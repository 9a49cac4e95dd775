// Standalone runner for the distributed maximal-matching protocols:
// re-binds the thread's run context (mm/run_context.hpp) onto a graph,
// steps the live (non-quiescent) protocol nodes in lockstep, and extracts
// the matching plus the traffic/convergence statistics that the
// Appendix-A experiments (E5, E6) report.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/fault.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "mm/node.hpp"

namespace dasm::obs {
class TraceSink;
}  // namespace dasm::obs

namespace dasm::mm {

struct RunConfig {
  Backend backend = Backend::kIsraeliItai;
  std::uint64_t seed = 1;  ///< randomized backends only
  /// Maximum protocol iterations (MatchingRounds / sweeps); 0 means run
  /// until global quiescence, which a run that has not reached after
  /// 2n + 16 iterations fails with a CheckError (the safety cap of ASM's
  /// Step 3; a crashed neighbour can keep a node live forever).
  /// kColorClass's cap is its fixed schedule where that is longer:
  /// max degree^2 + 1 iterations.
  int max_iterations = 0;
  /// Stop early once every node is quiescent (the matching is then
  /// maximal). Disable to always consume the full iteration budget, as a
  /// fixed-schedule CONGEST execution would.
  bool stop_on_quiescence = true;
  /// Must stay 1: a run is serial (DESIGN.md §6), and any other value is
  /// a CheckError. The field remains only because servebench/replay.cpp,
  /// which is frozen together with the benchmark, assigns it.
  int threads = 1;
  /// Record the last `trace_events` transmissions into RunResult::trace
  /// (0 disables).
  std::size_t trace_events = 0;
  /// Observability sink (src/obs/): when set, the runner records a kRun
  /// span, one kMmIteration span + kMmLiveNodes counter per protocol
  /// iteration, and per-round traffic samples. nullptr disables all
  /// recording.
  obs::TraceSink* obs_sink = nullptr;
  /// Fault injection + reliability sublayer (DESIGN.md §8), applied to
  /// the runner's Network before round 0 — see AsmParams::fault_plan and
  /// AsmParams::retransmit_after for semantics. Unlike ASM, a run may take
  /// raw loss (retransmit_after == 0), but only with max_iterations >= 1:
  /// a lost handshake can keep nodes live forever, so an active plan
  /// with neither is a CheckError.
  FaultPlan fault_plan;
  int retransmit_after = 0;
  int max_retransmits = 64;
};

struct RunResult {
  Matching matching{0};
  NetStats net;
  int iterations_executed = 0;
  bool maximal = false;
  /// Number of non-quiescent vertices after each iteration — the decay
  /// series of Lemma 8.
  std::vector<std::int64_t> live_after_iteration;
  /// Transmission ring (oldest first) when RunConfig::trace_events > 0.
  std::vector<TraceEvent> trace;
};

/// Runs the configured protocol on g. `is_left` gives the bipartite
/// orientation (proposing side) and is required by kPointerGreedy; the
/// other backends ignore it, so it may be empty. kColorClass is sized by
/// the degree bound max(1, max degree of g) and the id bound max(2, n).
RunResult run_maximal_matching(const Graph& g, const std::vector<bool>& is_left,
                               const RunConfig& config);

}  // namespace dasm::mm
