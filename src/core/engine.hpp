// The ASM execution engine: owns the CONGEST network and the players and
// drives them through the globally known phase sequence of Algorithms 1-3.
//
// Method bodies are split by algorithm: proposal_round.cpp (Algorithm 1),
// quantile_match.cpp (Algorithm 2), asm_algorithm.cpp (Algorithm 3 and
// result assembly).
#pragma once

#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/player.hpp"
#include "core/result.hpp"
#include "core/schedule.hpp"
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
  // Algorithm 1. Returns true if any message was sent during the round.
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

  void record_snapshot(int outer_iteration);

  /// Emits the per-inner-iteration obs counters (active/bad/matched/live
  /// men, plus blocking-pair counts when AsmParams::obs_blocking_pairs);
  /// no-op when no obs sink is attached.
  void emit_inner_counters();

  /// The current matching, read from the women's (authoritative) partner
  /// state; checks man/woman agreement. Valid at ProposalRound
  /// boundaries.
  Matching current_matching() const;

  AsmResult build_result();

  // Steps every man (resp. woman) through f in node-id order — the send
  // order every trace and inbox reflects (DESIGN.md §6).
  template <typename F>
  void for_each_man(F&& f) {
    for (NodeId m = 0; m < inst_->n_men(); ++m) f(m);
  }
  template <typename F>
  void for_each_woman(F&& f) {
    for (NodeId w = 0; w < inst_->n_women(); ++w) f(w);
  }

  const Instance* inst_;
  AsmParams params_;
  Schedule sched_;
  Network net_;
  std::vector<ManPlayer> men_;
  std::vector<WomanPlayer> women_;

  // Progress counters (see AsmResult).
  std::int64_t proposal_rounds_executed_ = 0;
  std::int64_t quantile_matches_executed_ = 0;
  std::int64_t mm_rounds_executed_ = 0;
  int mm_iterations_peak_ = 0;
  std::int64_t inner_iteration_counter_ = 0;
  std::vector<InnerSnapshot> trace_;
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
/// ceil(deg / k). Used to size degree-parameterized subroutines (e.g.
/// mm::ColorClassNode).
NodeId g0_degree_bound(const Instance& inst, NodeId k);

}  // namespace dasm::core
