// Algorithm 3 (ASM): the outer degree-threshold loop, the inner
// QuantileMatch loop, and result assembly.
#include "core/engine.hpp"

#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm::core {

AsmEngine::Context& AsmEngine::thread_context() {
  thread_local Context context;
  return context;
}

AsmEngine::AsmEngine(const Instance& inst, const AsmParams& params)
    : ctx_(thread_context()),
      inst_(&inst),
      params_(params),
      sched_(resolve_schedule(params, inst.n_men(), inst.n_women())),
      net_(lease_->net),
      proposers_(ctx_.proposers),
      receivers_(ctx_.receivers),
      g0_men_(ctx_.g0_men),
      g0_women_(ctx_.g0_women),
      mm_live_(lease_->live),
      rec_(params.obs_sink) {
  const auto& bg = inst.graph();
  net_.rebind(bg.graph());
  // kColorClass's global bounds: G0's quantized degree bound, and the
  // node count resolve_schedule sized its class pass by.
  const NodeId degree_bound = g0_degree_bound(inst, sched_.k);
  mm::NodePool& nodes = lease_->nodes;
  nodes.prepare(params.mm_backend, params.seed, bg.node_count(), degree_bound,
                bg.node_count());
  auto player_k = [&](const PreferenceList& pref) {
    // §3.2: k = deg(v) degenerates every quantile to a single partner.
    return params.per_player_quantiles ? std::max<NodeId>(pref.degree(), 1)
                                       : sched_.k;
  };
  const auto n_men = static_cast<std::size_t>(inst.n_men());
  const auto n_women = static_cast<std::size_t>(inst.n_women());
  if (ctx_.men.size() < n_men) ctx_.men.resize(n_men);
  if (ctx_.women.size() < n_women) ctx_.women.resize(n_women);
  men_ = std::span<ManPlayer>(ctx_.men).first(n_men);
  women_ = std::span<WomanPlayer>(ctx_.women).first(n_women);
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    men_[static_cast<std::size_t>(m)].reset(
        bg.man_id(m), inst.man_pref(m), player_k(inst.man_pref(m)),
        /*woman_id_offset=*/inst.n_men(), nodes[bg.man_id(m)]);
  }
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    women_[static_cast<std::size_t>(w)].reset(
        bg.woman_id(w), inst.woman_pref(w), player_k(inst.woman_pref(w)),
        nodes[bg.woman_id(w)]);
  }
  DASM_CHECK_MSG(params.threads == 1,
                 "AsmParams::threads must be 1 (a run is serial), got "
                     << params.threads);
  DASM_CHECK_MSG(!params.fault_plan.active() || params.retransmit_after >= 1,
                 "an active fault plan needs retransmit_after >= 1: raw "
                 "loss breaks the protocol's invariants");
  if (params.net_trace_events > 0) net_.enable_trace(params.net_trace_events);
  if (params.fault_plan.active()) net_.set_fault_plan(params.fault_plan);
  if (params.retransmit_after > 0) {
    net_.set_reliable_transport(params.retransmit_after,
                                params.max_retransmits);
  }
  if (rec_.enabled()) {
    net_.set_round_hook(
        [this](const NetStats& stats) { rec_.on_round(stats); });
  }
  if (params.metrics != nullptr) {
    m_runs_ = params.metrics->counter("engine.runs");
    m_outer_iters_ = params.metrics->counter("engine.outer_iters");
    m_inner_iters_ = params.metrics->counter("engine.inner_iters");
    m_outer_us_ = params.metrics->histogram("time.engine.outer_us");
    m_inner_us_ = params.metrics->histogram("time.engine.inner_us");
    m_inner_rounds_ = params.metrics->histogram("engine.inner_rounds");
    m_certify_us_ = params.metrics->histogram("time.engine.certify_us");
    net_.set_metrics(params.metrics);
  }
}

NodeId g0_degree_bound(const Instance& inst, NodeId k) {
  DASM_CHECK(k >= 1);
  NodeId bound = 1;
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    bound = std::max(bound, (inst.man_pref(m).degree() + k - 1) / k);
  }
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    bound = std::max(bound, (inst.woman_pref(w).degree() + k - 1) / k);
  }
  return bound;
}

bool AsmEngine::round_budget_exhausted() const {
  return params_.max_rounds > 0 &&
         net_.stats().executed_rounds >= params_.max_rounds;
}

bool AsmEngine::globally_quiescent() const {
  // A silent QuantileMatch ends the execution for good: every currently
  // gated-in man is matched or exhausted, active sets only shrink as the
  // threshold doubles, and a good man only becomes bad again when some
  // other man's proposal displaces him (see DESIGN.md substitution 3).
  for (const auto& man : men_) {
    if (man.would_propose()) return false;
  }
  return true;
}

AsmResult AsmEngine::run() {
  m_runs_.inc();
  rec_.begin_span(obs::Phase::kRun, 0, net_.stats());
  for (int i = 0; i < sched_.outer; ++i) {
    // The ScopedTimer records on every exit from the outer body,
    // including the early returns below (budget, quiescence trim).
    const obs::ScopedTimer outer_timer(m_outer_us_);
    m_outer_iters_.inc();
    rec_.begin_span(obs::Phase::kOuter, i, net_.stats());
    const std::int64_t threshold =
        params_.gate_by_degree ? (std::int64_t{1} << std::min(i, 62)) : 1;
    for (auto& man : men_) man.set_outer_gate(threshold);

    for (std::int64_t j = 0; j < sched_.inner; ++j) {
      const std::int64_t inner_index = inner_iteration_counter_;
      rec_.begin_span(obs::Phase::kInner, inner_index, net_.stats());
      const std::int64_t rounds_before = net_.stats().executed_rounds;
      bool moved = false;
      {
        const obs::ScopedTimer inner_timer(m_inner_us_);
        moved = run_quantile_match();
      }
      m_inner_iters_.inc();
      m_inner_rounds_.observe(net_.stats().executed_rounds - rounds_before);
      ++inner_iteration_counter_;
      emit_inner_counters();
      rec_.end_span(obs::Phase::kInner, inner_index, net_.stats());
      if (round_budget_exhausted()) return build_result();
      if (params_.trim_quiescent_phases && !moved && globally_quiescent()) {
        // Charge the rest of the paper schedule and stop.
        const std::int64_t remaining_qms =
            (sched_.inner - 1 - j) +
            static_cast<std::int64_t>(sched_.outer - 1 - i) * sched_.inner;
        net_.charge_scheduled_rounds(remaining_qms * sched_.k *
                                     sched_.rounds_per_proposal_round());
        return build_result();
      }
    }
    rec_.end_span(obs::Phase::kOuter, i, net_.stats());
  }
  return build_result();
}

void AsmEngine::emit_inner_counters() {
  if (!rec_.enabled()) return;
  const std::int64_t round = net_.stats().executed_rounds;
  std::int64_t active = 0;
  std::int64_t bad_active = 0;
  std::int64_t matched = 0;
  std::int64_t live_targets = 0;
  for (const auto& man : men_) {
    if (man.partner() != kNoNode) ++matched;
    if (man.would_propose()) ++live_targets;
    if (!man.active() || man.dropped()) continue;
    ++active;
    if (!man.good()) ++bad_active;
  }
  rec_.counter(obs::Counter::kActiveMen, round, active);
  rec_.counter(obs::Counter::kBadActiveMen, round, bad_active);
  rec_.counter(obs::Counter::kMatchedPairs, round, matched);
  rec_.counter(obs::Counter::kMenWithLiveTargets, round, live_targets);
  if (params_.obs_blocking_pairs) {
    const obs::ScopedTimer certify_timer(m_certify_us_);
    const Matching m = current_matching();
    rec_.counter(obs::Counter::kBlockingPairs, round,
                 count_blocking_pairs(*inst_, m));
    rec_.counter(obs::Counter::kEpsBlockingPairs, round,
                 count_eps_blocking_pairs(
                     *inst_, m, 2.0 / static_cast<double>(sched_.k)));
  }
}

Matching AsmEngine::current_matching() const {
  const auto& bg = inst_->graph();
  Matching matching(bg.node_count());
  // The women's partner state is authoritative (Lemma 1: it only ever
  // improves); the men's view agrees because displacements are processed
  // at the end of every ProposalRound.
  for (NodeId w = 0; w < inst_->n_women(); ++w) {
    const NodeId m = women_[static_cast<std::size_t>(w)].partner();
    if (m == kNoNode) continue;
    DASM_CHECK_MSG(
        men_[static_cast<std::size_t>(m)].partner() == w,
        "man " << m << " and woman " << w << " disagree about their match");
    matching.add(bg.man_id(m), bg.woman_id(w));
  }
  return matching;
}

AsmResult AsmEngine::build_result() {
  // Close any spans an early exit (round budget, quiescence trim) left
  // open and commit the tail of the obs event stream.
  rec_.finish(net_.stats());

  AsmResult result;
  result.schedule = sched_;
  result.net = net_.stats();
  result.proposal_rounds_executed = proposal_rounds_executed_;
  result.quantile_matches_executed = quantile_matches_executed_;
  result.mm_rounds_executed = mm_rounds_executed_;
  result.mm_iterations_peak = mm_iterations_peak_;
  if (params_.net_trace_events > 0) result.net_trace = net_.trace();

  result.matching = current_matching();

  result.good_men.resize(static_cast<std::size_t>(inst_->n_men()));
  result.dropped_men.resize(static_cast<std::size_t>(inst_->n_men()));
  result.final_q_size.resize(static_cast<std::size_t>(inst_->n_men()));
  for (NodeId m = 0; m < inst_->n_men(); ++m) {
    const auto& man = men_[static_cast<std::size_t>(m)];
    result.good_men[static_cast<std::size_t>(m)] = man.good();
    result.dropped_men[static_cast<std::size_t>(m)] = man.dropped();
    result.final_q_size[static_cast<std::size_t>(m)] = man.q_size();
    if (man.good()) {
      ++result.good_count;
    } else {
      ++result.bad_count;
    }
  }
  return result;
}

AsmResult run_asm(const Instance& inst, const AsmParams& params) {
  AsmEngine engine(inst, params);
  return engine.run();
}

}  // namespace dasm::core
