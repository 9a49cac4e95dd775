// Execution results and diagnostics for ASM and its variants.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "congest/network.hpp"
#include "core/schedule.hpp"
#include "graph/matching.hpp"

namespace dasm::core {

struct AsmResult {
  Matching matching{0};
  Schedule schedule;
  NetStats net;  ///< executed_rounds / scheduled_rounds / messages / bits

  /// ProposalRounds actually driven vs. allocated by the paper schedule.
  std::int64_t proposal_rounds_executed = 0;
  /// QuantileMatch calls actually driven (including partially trimmed).
  std::int64_t quantile_matches_executed = 0;
  /// Communication rounds spent inside maximal-matching subcalls.
  std::int64_t mm_rounds_executed = 0;
  /// Largest number of MM iterations any single subcall used.
  int mm_iterations_peak = 0;

  /// Final good/bad partition (§4): good_men[m] iff man m is matched or
  /// has been rejected by every acceptable partner.
  std::vector<bool> good_men;
  /// Men removed from play by the almost-maximal-matching rule (§5.2);
  /// empty unless drop_unsatisfied_men was set.
  std::vector<bool> dropped_men;

  /// |Q^m| at termination for every man — the quantity Lemma 7 uses to
  /// bound each bad man's (2/k)-blocking pairs.
  std::vector<NodeId> final_q_size;

  std::int64_t good_count = 0;
  std::int64_t bad_count = 0;

  /// The network's transmission ring (oldest first), captured when
  /// AsmParams::net_trace_events > 0 — the witness the parallel/serial
  /// bit-identity tests compare.
  std::vector<TraceEvent> net_trace;

  /// bad_men = !good_men, as a man filter for blocking-pair audits.
  std::vector<bool> bad_men() const;

  /// Human-readable one-paragraph summary.
  void print_summary(std::ostream& os) const;
};

}  // namespace dasm::core
