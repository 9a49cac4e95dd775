// Parameters for ASM and its variants (Algorithms 1-3, §5).
//
// Every knob defaults to the paper's choice; overrides exist so tests can
// probe individual lemmas and benches can run ablations (experiment E11).
#pragma once

#include <cstdint>

#include "congest/fault.hpp"
#include "congest/types.hpp"
#include "mm/node.hpp"

namespace dasm::obs {
class TraceSink;
class MetricsRegistry;
}

namespace dasm::core {

struct AsmParams {
  /// Approximation target: the output has at most epsilon * |E| blocking
  /// pairs (Definition 1, Theorem 3).
  double epsilon = 0.25;

  /// Maximal-matching subroutine for Step 3 of ProposalRound. The
  /// deterministic backends yield ASM, the randomized ones RandASM (§5.1).
  /// kColorClass nodes are sized by g0_degree_bound(inst, k) and the
  /// instance's node count (core/engine.hpp).
  mm::Backend mm_backend = mm::Backend::kPointerGreedy;

  /// Root seed for randomized subroutines (ignored by the deterministic
  /// backend). Every node derives an independent stream from it.
  std::uint64_t seed = 1;

  /// Quantile count; 0 means the paper's k = ceil(8 / epsilon).
  NodeId k = 0;

  /// §3.2: give every player k = deg(v) quantiles (all singletons), which
  /// makes ProposalRound mimic the classical extended Gale–Shapley
  /// algorithm exactly — each man proposes to his single best remaining
  /// woman and each woman keeps her single best suitor. The global k
  /// above still sizes the loop bounds.
  bool per_player_quantiles = false;

  /// delta in Algorithm 3; 0 means the paper's epsilon / 8.
  double delta = 0.0;

  /// Inner-loop length; 0 means the paper's 2 * delta^-1 * k QuantileMatch
  /// calls per outer iteration (Lemma 6).
  std::int64_t inner_iterations = 0;

  /// Outer-loop length; 0 means the paper's floor(log2 n) + 1 iterations
  /// (i = 0 .. log n).
  int outer_iterations = 0;

  /// Gate men on |Q| >= 2^i in outer iteration i (Algorithm 3). Disabled
  /// by AlmostRegularASM, which needs no degree thresholding (§5.2).
  bool gate_by_degree = true;

  /// Iteration budget per embedded maximal-matching execution; 0 means run
  /// the subroutine to quiescence (always-maximal — the deterministic
  /// setting). RandASM sets the Corollary-1 budget, AlmostRegularASM the
  /// Corollary-2 (AMM) budget.
  int mm_iteration_budget = 0;

  /// Remove men left Definition-3-unsatisfied by a truncated (almost-
  /// maximal) matching from play (§5.2, footnote 2). AlmostRegularASM
  /// sets this.
  bool drop_unsatisfied_men = false;

  /// Skip phases that provably exchange no messages, charging them to the
  /// scheduled-rounds counters (see DESIGN.md substitution 3). Turning
  /// this off executes the complete paper schedule round by round.
  bool trim_quiescent_phases = true;

  /// Stop cleanly (at a ProposalRound boundary) once this many
  /// communication rounds have executed; 0 means no cap. Used by the
  /// quality-versus-round-budget experiments (E9, E10) — the anytime
  /// behaviour the approximation guarantee buys.
  std::int64_t max_rounds = 0;

  /// Must stay 1: a run is serial (DESIGN.md §6), and any other value is
  /// a CheckError. The field remains only because servebench/replay.cpp,
  /// which is frozen together with the benchmark, assigns it.
  int threads = 1;

  /// Record the last `net_trace_events` network transmissions (a
  /// fixed-capacity ring; see Network::enable_trace) into
  /// AsmResult::net_trace. 0 disables recording.
  std::size_t net_trace_events = 0;

  /// Observability sink (src/obs/): when set, the engine records
  /// phase-scoped spans (outer/inner iteration, ProposalRound, MM
  /// subcall), per-inner-iteration counters, and per-round NetStats
  /// samples into it. Non-owning; the sink must outlive the run. Null
  /// disables recording entirely (every hook is then a null check).
  /// Exported traces are bit-identical run to run — see DESIGN.md §7.
  obs::TraceSink* obs_sink = nullptr;

  /// Wall-clock metrics registry (src/obs/metrics.hpp, DESIGN.md §11):
  /// when set, the engine registers and records per-run counters
  /// (engine.runs / outer_iters / inner_iters), logical histograms
  /// (engine.inner_rounds, net.round_messages), and wall-clock
  /// histograms (time.engine.outer_us / inner_us / certify_us,
  /// time.net.end_round_us). Non-owning; must outlive the run, and must
  /// not be shared with engines running concurrently on other threads —
  /// a registry has exactly one writer. Logical metrics are
  /// byte-identical run to run; "time.*" is excluded from that contract.
  /// Null disables recording (inactive handles cost one branch per site).
  obs::MetricsRegistry* metrics = nullptr;

  /// Fault injection (DESIGN.md §8): when active, the engine installs the
  /// plan on its Network before round 0, so messages can be dropped,
  /// duplicated, or delayed. Determinism is preserved — same plan (seed
  /// included) ⇒ bit-identical results and traces. An active plan needs
  /// the reliability sublayer below (retransmit_after >= 1), else the
  /// engine throws CheckError before round 0: raw loss breaks the
  /// protocol's invariants and aborts the run.
  FaultPlan fault_plan;

  /// Reliability sublayer (Network::set_reliable_transport): with a value
  /// k > 0, every send is acked and retransmitted every k wire rounds
  /// until delivered, so a lossy network costs extra executed rounds, not
  /// correctness — the run's matching is identical to the fault-free one
  /// (absent crashes). 0 turns the sublayer off, which an active
  /// fault_plan does not allow.
  int retransmit_after = 0;

  /// Attempt cap per payload under the reliability sublayer.
  int max_retransmits = 64;

  /// With obs_sink set, additionally sample the classic and (2/k)
  /// eps-blocking-pair counts of the current matching at every
  /// inner-iteration boundary. Each sample is a streaming O(|E|) scan
  /// (stable/blocking.hpp), so this is a measurable cost on large
  /// instances — the convergence-curve benches opt in.
  bool obs_blocking_pairs = false;
};

}  // namespace dasm::core
