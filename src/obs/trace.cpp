#include "obs/trace.hpp"

namespace dasm::obs {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kRun:
      return "run";
    case Phase::kOuter:
      return "outer";
    case Phase::kInner:
      return "inner";
    case Phase::kProposalRound:
      return "proposal_round";
    case Phase::kMmPhase:
      return "mm_phase";
    case Phase::kMmIteration:
      return "mm_iteration";
    case Phase::kSvcBatch:
      return "svc_batch";
    case Phase::kSvcRequest:
      return "svc_request";
  }
  return "unknown";
}

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::kActiveMen:
      return "active_men";
    case Counter::kBadActiveMen:
      return "bad_active_men";
    case Counter::kMatchedPairs:
      return "matched_pairs";
    case Counter::kMenWithLiveTargets:
      return "men_with_live_targets";
    case Counter::kBlockingPairs:
      return "blocking_pairs";
    case Counter::kEpsBlockingPairs:
      return "eps_blocking_pairs";
    case Counter::kMmLiveNodes:
      return "mm_live_nodes";
    case Counter::kSvcCacheHits:
      return "svc_cache_hits";
    case Counter::kSvcCacheMisses:
      return "svc_cache_misses";
    case Counter::kSvcShed:
      return "svc_shed";
  }
  return "unknown";
}

std::vector<ConvergenceRow> convergence_rows(const MemorySink& sink) {
  std::vector<ConvergenceRow> rows;
  ConvergenceRow latest;
  for (const Event& e : sink.events) {
    switch (e.kind) {
      case Event::Kind::kCounter:
        latest.counters[static_cast<std::size_t>(e.counter)] = e.value;
        break;
      case Event::Kind::kBegin:
        if (e.phase == Phase::kOuter) latest.outer = e.index;
        break;
      case Event::Kind::kEnd:
        if (e.phase == Phase::kInner) {
          latest.inner = e.index;
          latest.round = e.round;
          rows.push_back(latest);
        }
        break;
    }
  }
  return rows;
}

}  // namespace dasm::obs
