#include "core/rand_asm.hpp"

#include <algorithm>

#include "mm/amm.hpp"
#include "util/check.hpp"

namespace dasm::core {

namespace {

AsmParams to_asm_params(const RandAsmParams& params) {
  AsmParams p;
  p.epsilon = params.epsilon;
  p.mm_backend = mm::Backend::kIsraeliItai;
  p.seed = params.seed;
  p.trim_quiescent_phases = params.trim_quiescent_phases;
  p.threads = params.threads;
  p.net_trace_events = params.net_trace_events;
  p.obs_sink = params.obs_sink;
  p.obs_blocking_pairs = params.obs_blocking_pairs;
  p.metrics = params.metrics;
  p.fault_plan = params.fault_plan;
  p.retransmit_after = params.retransmit_after;
  p.max_retransmits = params.max_retransmits;
  return p;
}

}  // namespace

int rand_asm_mm_budget(const Instance& inst, const RandAsmParams& params) {
  DASM_CHECK(params.failure_prob > 0.0 && params.failure_prob < 1.0);
  const Schedule sched = resolve_schedule(to_asm_params(params), inst.n_men(),
                                         inst.n_women());
  // Union bound over every Step-3 subcall in the schedule: each must be
  // maximal with probability 1 - failure_prob / (number of subcalls).
  const auto calls = std::max<std::int64_t>(1, sched.scheduled_proposal_rounds());
  const double per_call = params.failure_prob / static_cast<double>(calls);
  return mm::maximality_iterations(inst.graph().node_count(),
                                   per_call, params.decay);
}

AsmResult run_rand_asm(const Instance& inst, const RandAsmParams& params) {
  AsmParams p = to_asm_params(params);
  p.mm_iteration_budget = rand_asm_mm_budget(inst, params);
  return run_asm(inst, p);
}

}  // namespace dasm::core
