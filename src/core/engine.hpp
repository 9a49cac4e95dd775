// The ASM execution engine: drives the players through the globally known
// phase sequence of Algorithms 1-3 on the CONGEST network. The network,
// the players, their maximal-matching nodes and the engine's scratch lists
// are the calling thread's run context (DESIGN.md §13, mm/run_context.hpp),
// which each run re-binds and re-initializes in place instead of building
// them anew.
//
// Method bodies are split by algorithm: proposal_round.cpp (Algorithm 1),
// quantile_match.cpp (Algorithm 2), asm_algorithm.cpp (Algorithm 3 and
// result assembly).
#pragma once

#include <span>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/player.hpp"
#include "core/result.hpp"
#include "core/schedule.hpp"
#include "mm/run_context.hpp"
#include "obs/trace.hpp"
#include "stable/instance.hpp"

namespace dasm::core {

class AsmEngine {
 public:
  AsmEngine(const Instance& inst, const AsmParams& params);

  /// Runs the full schedule (or until provable global quiescence when
  /// trimming is enabled) and returns the matching plus diagnostics.
  AsmResult run();

 private:
  // Algorithm 1 for the men in proposers_. Returns true if any message
  // was sent during the round.
  bool run_proposal_round();
  // Step 3: drive the embedded maximal-matching protocol. Returns the
  // number of protocol iterations executed.
  int run_mm_phase();
  // Algorithm 2. Returns true if any message was sent.
  bool run_quantile_match();

  // True when no player will ever send another message (every man is
  // matched, exhausted, or permanently outside the degree gate).
  bool globally_quiescent() const;

  // True once the AsmParams::max_rounds cap has been reached.
  bool round_budget_exhausted() const;

  /// Emits the per-inner-iteration obs counters (active/bad/matched/live
  /// men, plus blocking-pair counts when AsmParams::obs_blocking_pairs);
  /// no-op when no obs sink is attached.
  void emit_inner_counters();

  /// The current matching, read from the women's (authoritative) partner
  /// state; checks man/woman agreement. Valid at ProposalRound
  /// boundaries.
  Matching current_matching() const;

  AsmResult build_result();

  // The core layer's part of the thread's run context: the players and
  // the scratch lists only the engine uses. The network, the nodes and
  // the live list are the mm layer's part (lease_). The player arrays
  // only grow, so players past this run's count keep their storage for a
  // larger instance.
  struct Context {
    std::vector<ManPlayer> men;
    std::vector<WomanPlayer> women;
    std::vector<NodeId> proposers;
    std::vector<NodeId> receivers;
    std::vector<NodeId> g0_men;
    std::vector<NodeId> g0_women;
  };
  static Context& thread_context();

  // The first member: a run nested inside another on this thread throws
  // here, before ctx_ is touched, and the lease is released last.
  const mm::RunLease lease_;
  Context& ctx_;
  const Instance* inst_;
  AsmParams params_;
  Schedule sched_;
  Network& net_;
  std::span<ManPlayer> men_;      // this run's players, by index
  std::span<WomanPlayer> women_;

  // The players each ProposalRound step can reach (DESIGN.md §2), in
  // ascending id order so every send, inbox and trace matches stepping
  // all players in id order (DESIGN.md §6). Context storage, so rounds
  // and warm runs reuse it and allocate nothing.
  std::vector<NodeId>& proposers_;  // Step 1: men who would propose
  std::vector<NodeId>& receivers_;  // sorted Network::receivers()
  std::vector<NodeId>& g0_men_;     // Steps 3-4: men an ACCEPT reached
  std::vector<NodeId>& g0_women_;   // Steps 3-4: women who accepted someone
  std::vector<NodeId>& mm_live_;    // Step 3: non-quiescent G0 node ids
                                    // (the lease's live list)

  // Progress counters (see AsmResult).
  std::int64_t proposal_rounds_executed_ = 0;
  std::int64_t quantile_matches_executed_ = 0;
  std::int64_t mm_rounds_executed_ = 0;
  int mm_iterations_peak_ = 0;
  std::int64_t inner_iteration_counter_ = 0;
  obs::Recorder rec_;  // null-sink recorder unless AsmParams::obs_sink set

  // Wall-clock metrics handles (inactive unless AsmParams::metrics set).
  obs::CounterHandle m_runs_;
  obs::CounterHandle m_outer_iters_;
  obs::CounterHandle m_inner_iters_;
  obs::HistogramHandle m_outer_us_;       // time per outer iteration
  obs::HistogramHandle m_inner_us_;       // time per inner iteration
  obs::HistogramHandle m_inner_rounds_;   // logical: rounds per inner iter
  obs::HistogramHandle m_certify_us_;     // blocking-pair sampling scans
};

/// Convenience entry point: run ASM with `params` on `inst`.
AsmResult run_asm(const Instance& inst, const AsmParams& params);

/// Upper bound on the degree of any Step-3 accepted-proposal graph G0
/// when preferences are quantized into k quantiles: max over players of
/// ceil(deg / k), at least 1. The engine sizes the degree-parameterized
/// mm::Backend::kColorClass by it.
NodeId g0_degree_bound(const Instance& inst, NodeId k);

}  // namespace dasm::core
