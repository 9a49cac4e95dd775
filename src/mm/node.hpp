// Per-processor state machine interface for distributed maximal-matching
// protocols (§2.3 and Appendix A).
//
// A protocol execution is a lockstep sequence of communication rounds over
// a (sub)graph: each node is reset with its live neighbour set, then
// on_round() is invoked once per round for every node that is not yet
// quiescent. The same node objects are used standalone (mm/runner) and
// embedded inside Step 3 of ProposalRound, where the graph is the
// accepted-proposal graph G0 of the current round. A thread keeps one
// node array per backend across runs (mm/run_context.hpp): reset() copies
// the neighbour list into storage the node keeps, so a warm node
// allocates nothing.
//
// The quiescence contract, which lets the ASM engine and the standalone
// runner skip quiescent nodes without changing a single send: once
// quiescent() is true (until the next reset()), on_round() sends nothing,
// draws no randomness, and partner() no longer changes, whatever the inbox
// holds. Both check quiescence at iteration boundaries and keep stepping a
// node for the rest of the iteration in which it became quiescent;
// core/selftimed still steps every node every round and is the oracle the
// skipping is tested against (tests/test_selftimed.cpp, which also pins
// the contract).
#pragma once

#include <span>

#include "congest/network.hpp"
#include "congest/types.hpp"
#include "util/prng.hpp"

namespace dasm::mm {

class Node {
 public:
  virtual ~Node() = default;

  /// Begins a new protocol execution on a fresh (sub)graph. `neighbors`
  /// is this node's live neighbour list, which the node copies;
  /// `is_left` identifies the proposing side for bipartite protocols
  /// (ignored by symmetric ones). Randomized protocols keep consuming
  /// their stream across resets so repeated executions stay independent.
  virtual void reset(NodeId self, bool is_left,
                     std::span<const NodeId> neighbors) = 0;

  /// Executes one communication round: consume this round's envelopes,
  /// send next-round messages through `net`. All nodes are stepped in
  /// lockstep between net.begin_round() and net.end_round().
  virtual void on_round(InboxView inbox, Network& net) = 0;

  /// Partner in the matching constructed so far (kNoNode if unmatched).
  virtual NodeId partner() const = 0;

  /// True when this node has permanently left the residual graph (it is
  /// matched or isolated): from now until reset(), on_round() sends
  /// nothing, draws no randomness and leaves partner() unchanged.
  virtual bool quiescent() const = 0;

  /// Communication rounds per protocol iteration (e.g. 4 for one
  /// Israeli–Itai MatchingRound).
  virtual int rounds_per_iteration() const = 0;
};

/// Which maximal-matching subroutine backs Step 3 of ProposalRound.
/// Append new values only: service cache keys and response lines digest
/// the ordinal (svc::Request::params_digest).
enum class Backend {
  kPointerGreedy,   ///< deterministic; stands in for HKP [6] (see DESIGN.md)
  kIsraeliItai,     ///< randomized, Appendix A
  kRandomPriority,  ///< randomized, Luby-style edge priorities (ablation)
  kColorClass,      ///< deterministic, O(Delta^2 log* n) rounds
};

const char* to_string(Backend b);

}  // namespace dasm::mm
